//go:build amd64

#include "textflag.h"

// func linearPanel(acc *[8]float32, p, w0, w1 []float32, b0, b1 float32)
//
// SSE forward kernel for one block of four rows against two outputs. p is
// the rows packed as an [In][4] panel (p[4k+i] = x[i][k]), so each vector
// lane is one row. For each output o the kernel keeps dot's four stripe
// accumulators s_j, j = k mod 4, as four vectors, each lane summing
// x[i][k]·w_o[k] in ascending k; the In%4 tail goes into stripe 0. The
// result is ((s0+s1)+s2)+s3 + b_o per lane: acc[0:4] for w0, acc[4:8] for
// w1. MULPS and ADDPS round each lane exactly as MULSS and ADDSS do, so
// every lane equals dot(x[i], w_o) + b_o bit for bit. Only len(w0)
// elements of w0 and w1 and 4·len(w0) of p are read.
TEXT ·linearPanel(SB), NOSPLIT, $0-88
	MOVQ acc+0(FP), DX
	MOVQ p_base+8(FP), SI
	MOVQ w0_base+32(FP), DI
	MOVQ w0_len+40(FP), CX
	MOVQ w1_base+56(FP), R8
	XORPS X0, X0           // w0 stripes s0..s3 in X0..X3
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4           // w1 stripes s0..s3 in X4..X7
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ CX, BX
	SHRQ $2, BX            // whole groups of four k
	JZ   tail

loop:
	MOVUPS (DI), X8        // w0[k..k+3]
	MOVUPS (R8), X9        // w1[k..k+3]

	MOVUPS  (SI), X10      // x[0..3][k]
	MOVAPS  X10, X11
	PSHUFD  $0x00, X8, X12 // w0[k] in every lane
	MULPS   X12, X10
	ADDPS   X10, X0
	PSHUFD  $0x00, X9, X13
	MULPS   X13, X11
	ADDPS   X11, X4

	MOVUPS  16(SI), X10    // x[0..3][k+1]
	MOVAPS  X10, X11
	PSHUFD  $0x55, X8, X12
	MULPS   X12, X10
	ADDPS   X10, X1
	PSHUFD  $0x55, X9, X13
	MULPS   X13, X11
	ADDPS   X11, X5

	MOVUPS  32(SI), X10    // x[0..3][k+2]
	MOVAPS  X10, X11
	PSHUFD  $0xAA, X8, X12
	MULPS   X12, X10
	ADDPS   X10, X2
	PSHUFD  $0xAA, X9, X13
	MULPS   X13, X11
	ADDPS   X11, X6

	MOVUPS  48(SI), X10    // x[0..3][k+3]
	MOVAPS  X10, X11
	PSHUFD  $0xFF, X8, X12
	MULPS   X12, X10
	ADDPS   X10, X3
	PSHUFD  $0xFF, X9, X13
	MULPS   X13, X11
	ADDPS   X11, X7

	ADDQ $64, SI
	ADDQ $16, DI
	ADDQ $16, R8
	DECQ BX
	JNZ  loop

tail:
	ANDQ $3, CX            // In%4 tail elements, into stripe 0
	JZ   reduce

tailloop:
	MOVSS  (DI), X12
	SHUFPS $0x00, X12, X12
	MOVSS  (R8), X13
	SHUFPS $0x00, X13, X13
	MOVUPS (SI), X10
	MOVAPS X10, X11
	MULPS  X12, X10
	ADDPS  X10, X0
	MULPS  X13, X11
	ADDPS  X11, X4
	ADDQ   $16, SI
	ADDQ   $4, DI
	ADDQ   $4, R8
	DECQ   CX
	JNZ    tailloop

reduce:
	ADDPS  X1, X0          // ((s0+s1)+s2)+s3, then the bias
	ADDPS  X2, X0
	ADDPS  X3, X0
	MOVSS  b0+80(FP), X12
	SHUFPS $0x00, X12, X12
	ADDPS  X12, X0
	MOVUPS X0, (DX)

	ADDPS  X5, X4
	ADDPS  X6, X4
	ADDPS  X7, X4
	MOVSS  b1+84(FP), X13
	SHUFPS $0x00, X13, X13
	ADDPS  X13, X4
	MOVUPS X4, 16(DX)
	RET
