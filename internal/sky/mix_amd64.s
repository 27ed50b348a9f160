//go:build amd64

#include "textflag.h"

// The mixture kernel evaluates four sky directions per call, one per lane
// of a YMM register. For each ring j in order every lane computes what
// mixture.at computes for its direction d:
//
//	pull = (((d.X·x[j] + d.Y·y[j]) + d.Z·z[j]) − eta[j]) / deta[j]
//	ll   = ll + log(q[j]·exp((pull·pull)·−0.5) + pf[j])
//
// (pull·pull)·−0.5 has the bits of Go's −pull*pull/2: negation and the
// halving are exact. exp is math.Exp's FMA path in $GOROOT/src/math/
// exp_amd64.s, step by step: the rounding conversion, the two fused
// reductions by LN2U and LN2L, ·1/16, the fused Taylor chain, three
// add/multiply squarings and the fused +1, then ldexp, whose normal,
// denormal (two multiplies), underflow (0) and overflow (+Inf) branches
// become blends, as do the NaN, −Inf and x > Overflow inputs (−pull²/2 is
// never positive, so the overflow blends are not reached here; they keep
// each lane equal to math.Exp for any argument). The term is
// a separate multiply and add, as the scalar loop is compiled without
// fused multiply-adds. log is math.Log's path in log_amd64.s: the
// mantissa/exponent bit split, the compare against √2/2 (f1 ≤ √2/2, which
// is its CMPSD's "not less than" with √2/2 first), a true divide, the
// same polynomial order, and its ±0, negative and +Inf/NaN inputs as
// blends. The caller guarantees that math.Exp is on its FMA path.

// C4 stores one 8-byte constant four times, one copy per lane.
#define C4(off, bits) DATA mixc<>+off(SB)/8, bits; DATA mixc<>+off+8(SB)/8, bits; DATA mixc<>+off+16(SB)/8, bits; DATA mixc<>+off+24(SB)/8, bits

C4(0, $0xbfe0000000000000) // NEGHALF: −0.5
C4(32, $0x3ff71547652b82fe) // LOG2E: log₂e
C4(64, $0x3fe62e42fefa3000) // LN2U: upper half of ln 2
C4(96, $0x3d53de6af278ece6) // LN2L: lower half of ln 2
C4(128, $0x3fb0000000000000) // SIXTEENTH: 1/16
C4(160, $0x3efa01a01a01a01a) // E8: 1/8!
C4(192, $0x3f2a01a01a01a01a) // E7: 1/7!
C4(224, $0x3f56c16c16c16c17) // E6: 1/6!
C4(256, $0x3f81111111111111) // E5: 1/5!
C4(288, $0x3fa5555555555555) // E4: 1/4!
C4(320, $0x3fc5555555555555) // E3: 1/3!
C4(352, $0x3fe0000000000000) // HALF: 0.5, also the exponent bits of [0.5, 1)
C4(384, $0x3ff0000000000000) // ONE: 1
C4(416, $0x4000000000000000) // TWO: 2
C4(448, $0x00000000000003ff) // BIAS: exponent bias (int64)
C4(480, $0x00000000000003fe) // BIASDEN: exponent bias − 1 (int64)
C4(512, $0x0010000000000000) // TINY: 2⁻¹⁰²²
C4(544, $0xffffffffffffffcb) // EM53: −53 (int64)
C4(576, $0x0000000000000000) // ZERO: 0
C4(608, $0x00000000000007fe) // E2046: 2046 (int64)
C4(640, $0x7ff0000000000000) // POSINF: +Inf
C4(672, $0x40862e42fefa39ef) // OVERFLOW: largest x with a finite exp
C4(704, $0x000fffffffffffff) // MANT: mantissa mask
C4(736, $0x00000000000007ff) // EXPMASK: exponent field mask
C4(768, $0x4330000000000000) // MAGIC: 2⁵²
C4(800, $0x43300000000003fe) // MAGIC1022: 2⁵² + 1022
C4(832, $0x3fe6a09e667f3bcd) // HSQRT2: √2/2
C4(864, $0x3fe5555555555593) // L1: L1
C4(896, $0x3fd999999997fa04) // L2: L2
C4(928, $0x3fd2492494229359) // L3: L3
C4(960, $0x3fcc71c51d8e78af) // L4: L4
C4(992, $0x3fc7466496cb03de) // L5: L5
C4(1024, $0x3fc39a09d078c69f) // L6: L6
C4(1056, $0x3fc2f112df3e5244) // L7: L7
C4(1088, $0x3fe62e42fee00000) // LN2HI: upper part of ln 2
C4(1120, $0x3dea39ef35793c76) // LN2LO: lower part of ln 2
C4(1152, $0x7ff8000000000001) // NAN: the NaN math.Log returns
C4(1184, $0xfff0000000000000) // NEGINF: −Inf
GLOBL mixc<>(SB), RODATA|NOPTR, $1216

#define NEGHALF   mixc<>+0(SB)
#define LOG2E     mixc<>+32(SB)
#define LN2U      mixc<>+64(SB)
#define LN2L      mixc<>+96(SB)
#define SIXTEENTH mixc<>+128(SB)
#define E8        mixc<>+160(SB)
#define E7        mixc<>+192(SB)
#define E6        mixc<>+224(SB)
#define E5        mixc<>+256(SB)
#define E4        mixc<>+288(SB)
#define E3        mixc<>+320(SB)
#define HALF      mixc<>+352(SB)
#define ONE       mixc<>+384(SB)
#define TWO       mixc<>+416(SB)
#define BIAS      mixc<>+448(SB)
#define BIASDEN   mixc<>+480(SB)
#define TINY      mixc<>+512(SB)
#define EM53      mixc<>+544(SB)
#define ZERO      mixc<>+576(SB)
#define E2046     mixc<>+608(SB)
#define POSINF    mixc<>+640(SB)
#define OVERFLOW  mixc<>+672(SB)
#define MANT      mixc<>+704(SB)
#define EXPMASK   mixc<>+736(SB)
#define MAGIC     mixc<>+768(SB)
#define MAGIC1022 mixc<>+800(SB)
#define HSQRT2    mixc<>+832(SB)
#define L1        mixc<>+864(SB)
#define L2        mixc<>+896(SB)
#define L3        mixc<>+928(SB)
#define L4        mixc<>+960(SB)
#define L5        mixc<>+992(SB)
#define L6        mixc<>+1024(SB)
#define L7        mixc<>+1056(SB)
#define LN2HI     mixc<>+1088(SB)
#define LN2LO     mixc<>+1120(SB)
#define NAN       mixc<>+1152(SB)
#define NEGINF    mixc<>+1184(SB)

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID                   // AX = highest standard leaf
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18001000, CX   // FMA (bit 12), OSXSAVE (27), AVX (28)
	CMPL  CX, $0x18001000
	JNE   no
	XORL  CX, CX
	XGETBV                  // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX         // AVX2 (leaf 7, EBX bit 5)
	JZ    no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func mixQuadAVX2(x, y, z, eta, deta, q, pf []float64, d *[12]float64, out *[4]float64)
//
// Y0, Y1, Y2 hold the lanes' d.X, d.Y, d.Z and Y3 their ll. Only len(x)
// elements of each column are read.
TEXT ·mixQuadAVX2(SB), NOSPLIT, $0-184
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	MOVQ    y_base+24(FP), DI
	MOVQ    z_base+48(FP), R8
	MOVQ    eta_base+72(FP), R9
	MOVQ    deta_base+96(FP), R10
	MOVQ    q_base+120(FP), R11
	MOVQ    pf_base+144(FP), R12
	MOVQ    d+168(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VXORPD  Y3, Y3, Y3      // ll = +0
	XORQ    BX, BX
	TESTQ   CX, CX
	JZ      done

loop:
	// pull, and x = pull²·−0.5 (Y4)
	VBROADCASTSD (SI)(BX*8), Y4
	VMULPD       Y0, Y4, Y4           // d.X·x
	VBROADCASTSD (DI)(BX*8), Y5
	VMULPD       Y1, Y5, Y5           // d.Y·y
	VADDPD       Y5, Y4, Y4
	VBROADCASTSD (R8)(BX*8), Y5
	VMULPD       Y2, Y5, Y5           // d.Z·z
	VADDPD       Y5, Y4, Y4
	VBROADCASTSD (R9)(BX*8), Y5
	VSUBPD       Y5, Y4, Y4           // − η
	VBROADCASTSD (R10)(BX*8), Y5
	VDIVPD       Y5, Y4, Y4           // pull
	VMULPD       Y4, Y4, Y4
	VMULPD       NEGHALF, Y4, Y4      // x

	// exp(x) (Y9)
	VMULPD       LOG2E, Y4, Y5
	VCVTPD2DQY   Y5, X5               // ki = round(x·log₂e), 0x80000000 when out of range
	VCVTDQ2PD    X5, Y6               // k
	VPMOVSXDQ    X5, Y5               // ki as int64
	VMOVAPD      Y4, Y7
	VFNMADD231PD LN2U, Y6, Y7         // r = x − k·LN2U
	VFNMADD231PD LN2L, Y6, Y7         // r = r − k·LN2L
	VMULPD       SIXTEENTH, Y7, Y7
	VMOVUPD      E8, Y6               // Taylor chain: p = p·r + c
	VFMADD213PD  E7, Y7, Y6
	VFMADD213PD  E6, Y7, Y6
	VFMADD213PD  E5, Y7, Y6
	VFMADD213PD  E4, Y7, Y6
	VFMADD213PD  E3, Y7, Y6
	VFMADD213PD  HALF, Y7, Y6
	VFMADD213PD  ONE, Y7, Y6
	VMULPD       Y6, Y7, Y7           // r·p
	VADDPD       TWO, Y7, Y6          // three squarings: r = r·(r + 2)
	VMULPD       Y6, Y7, Y7
	VADDPD       TWO, Y7, Y6
	VMULPD       Y6, Y7, Y7
	VADDPD       TWO, Y7, Y6
	VMULPD       Y6, Y7, Y7
	VADDPD       TWO, Y7, Y6
	VFMADD213PD  ONE, Y6, Y7          // fr = r·(r + 2) + 1
	VPADDQ       BIAS, Y5, Y5         // e = ki + 0x3FF
	VPSLLQ       $52, Y5, Y6
	VMULPD       Y6, Y7, Y8           // normal: fr·2^(e−0x3FF)
	VPADDQ       BIASDEN, Y5, Y6
	VPSLLQ       $52, Y6, Y6
	VMULPD       Y6, Y7, Y9
	VMULPD       TINY, Y9, Y9         // denormal: fr·2^(e+0x3FE−0x3FF)·2⁻¹⁰²²
	VPCMPGTQ     EM53, Y5, Y6
	VANDPD       Y6, Y9, Y9           // underflow, e < −52: 0
	VPCMPGTQ     ZERO, Y5, Y6
	VBLENDVPD    Y6, Y8, Y9, Y9       // e > 0: normal
	VPCMPGTQ     E2046, Y5, Y6
	VBLENDVPD    Y6, POSINF, Y9, Y9   // e > 0x7FE: overflow, +Inf
	VCMPPD       $0x1e, OVERFLOW, Y4, Y6
	VBLENDVPD    Y6, POSINF, Y9, Y9   // x > Overflow (+Inf included): +Inf
	VCMPPD       $3, Y4, Y4, Y6
	VBLENDVPD    Y6, Y4, Y9, Y9       // NaN: x

	// the term v = q·exp + pf (Y9)
	VBROADCASTSD (R11)(BX*8), Y5
	VMULPD       Y5, Y9, Y9
	VBROADCASTSD (R12)(BX*8), Y5
	VADDPD       Y5, Y9, Y9

	// log(v) (Y5)
	VANDPD       MANT, Y9, Y4
	VORPD        HALF, Y4, Y4         // f1 = mantissa with exponent of [0.5, 1)
	VPSRLQ       $52, Y9, Y5
	VPAND        EXPMASK, Y5, Y5
	VPOR         MAGIC, Y5, Y5        // 2⁵² + exponent field
	VSUBPD       MAGIC1022, Y5, Y5    // k = field − 0x3FE, exactly
	VCMPPD       $2, HSQRT2, Y4, Y6   // f1 ≤ √2/2:
	VANDPD       ONE, Y6, Y6
	VSUBPD       Y6, Y5, Y5           // k −= 1
	VADDPD       ONE, Y6, Y6
	VMULPD       Y6, Y4, Y4           // f1 ·= 2
	VSUBPD       ONE, Y4, Y4          // f = f1 − 1
	VADDPD       TWO, Y4, Y6
	VDIVPD       Y6, Y4, Y6           // s = f/(2 + f)
	VMULPD       Y6, Y6, Y7           // s2
	VMULPD       Y7, Y7, Y8           // s4
	VMULPD       L7, Y8, Y10
	VADDPD       L5, Y10, Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       L3, Y10, Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       L1, Y10, Y10
	VMULPD       Y10, Y7, Y7          // t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD       L6, Y8, Y10
	VADDPD       L4, Y10, Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       L2, Y10, Y10
	VMULPD       Y10, Y8, Y8          // t2 = s4·(L2 + s4·(L4 + s4·L6))
	VADDPD       Y8, Y7, Y7           // R = t1 + t2
	VMULPD       HALF, Y4, Y8
	VMULPD       Y4, Y8, Y8           // hfsq = 0.5·f·f
	VADDPD       Y8, Y7, Y7
	VMULPD       Y7, Y6, Y6           // s·(hfsq + R)
	VMULPD       LN2LO, Y5, Y7
	VADDPD       Y7, Y6, Y6           // s·(hfsq + R) + k·Ln2Lo
	VSUBPD       Y6, Y8, Y8           // hfsq − (…)
	VSUBPD       Y4, Y8, Y8           // (…) − f
	VMULPD       LN2HI, Y5, Y5
	VSUBPD       Y8, Y5, Y5           // k·Ln2Hi − (…)
	VCMPPD       $5, POSINF, Y9, Y6
	VBLENDVPD    Y6, Y9, Y5, Y5       // +Inf, NaN: v
	VBLENDVPD    Y9, NAN, Y5, Y5      // sign bit set: NaN
	VCMPPD       $0, ZERO, Y9, Y6
	VBLENDVPD    Y6, NEGINF, Y5, Y5   // ±0: −Inf

	VADDPD Y5, Y3, Y3                 // ll += log
	INCQ   BX
	CMPQ   BX, CX
	JNE    loop

done:
	MOVQ    out+176(FP), AX
	VMOVUPD Y3, 0(AX)
	VZEROUPPER
	RET
