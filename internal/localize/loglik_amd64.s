//go:build amd64

#include "textflag.h"

// func logLikPairSSE2(x, y, z, eta, deta []float64, ax, ay, az, bx, by, bz, robustCap float64) (la, lb float64)
//
// SSE2 scoring kernel for two directions a and b over one columnar ring
// set. The low lane is a, the high lane b. For each ring i in order, each
// lane computes what view.logLik computes for its direction s:
//
//	p  = ((s.X·x[i] + s.Y·y[i]) + s.Z·z[i] − eta[i]) / deta[i]
//	ll = ll − min(p·p, cap)·0.5
//
// MULPD, ADDPD, SUBPD and DIVPD round each lane exactly as the scalar
// instructions do (multiplication and addition commute exactly), the
// divide is a true DIVPD, and ·0.5 is exactly /2. MINPD returns its
// second operand when either is NaN, so with the cap in the destination a
// NaN pull² propagates as math.Min's does; for cap > 0 it returns
// math.Min(p·p, cap) in every other case. The caller guarantees cap > 0.
// Only len(x) elements of each column are read.
TEXT ·logLikPairSSE2(SB), NOSPLIT, $0-192
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	MOVQ   z_base+48(FP), R8
	MOVQ   eta_base+72(FP), R9
	MOVQ   deta_base+96(FP), R10
	MOVSD  ax+120(FP), X0       // X0 = [ax, bx]
	MOVHPD bx+144(FP), X0
	MOVSD  ay+128(FP), X1       // X1 = [ay, by]
	MOVHPD by+152(FP), X1
	MOVSD  az+136(FP), X2       // X2 = [az, bz]
	MOVHPD bz+160(FP), X2
	MOVSD  robustCap+168(FP), X3
	UNPCKLPD X3, X3             // X3 = [cap, cap]
	MOVSD  $0.5, X4
	UNPCKLPD X4, X4             // X4 = [0.5, 0.5]
	XORPD  X5, X5               // X5 = [la, lb] = [+0, +0]
	XORQ   BX, BX
	TESTQ  CX, CX
	JZ     done

loop:
	MOVSD    (SI)(BX*8), X6     // x[i] in both lanes
	UNPCKLPD X6, X6
	MULPD    X0, X6             // s.X·x
	MOVSD    (DI)(BX*8), X7
	UNPCKLPD X7, X7
	MULPD    X1, X7             // s.Y·y
	ADDPD    X7, X6
	MOVSD    (R8)(BX*8), X7
	UNPCKLPD X7, X7
	MULPD    X2, X7             // s.Z·z
	ADDPD    X7, X6
	MOVSD    (R9)(BX*8), X7
	UNPCKLPD X7, X7
	SUBPD    X7, X6             // − η
	MOVSD    (R10)(BX*8), X7
	UNPCKLPD X7, X7
	DIVPD    X7, X6             // pull
	MULPD    X6, X6             // pull²
	MOVAPD   X3, X7
	MINPD    X6, X7             // cap < pull² ? cap : pull²
	MULPD    X4, X7             // /2
	SUBPD    X7, X5
	INCQ     BX
	CMPQ     BX, CX
	JNE      loop

done:
	MOVSD  X5, la+176(FP)
	MOVHPD X5, lb+184(FP)
	RET
