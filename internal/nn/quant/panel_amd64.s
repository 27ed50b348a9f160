//go:build amd64

#include "textflag.h"

// func panelDot(y []int32, x, w []int16)
//
// SSE2 packed-panel kernel. For each block of sixteen outputs, four int32
// accumulators X4..X7 hold outputs 0-3, 4-7, 8-11 and 12-15. For each input
// pair k, (x[2k], x[2k+1]) is loaded as one dword and broadcast to every
// lane, and PMADDWL against the pair's 64-byte panel row adds
// x[2k]·w[o][2k] + x[2k+1]·w[o][2k+1] into each output's lane. The block's
// sums are stored to y[16b:16b+16]. Reads len(x) elements of x and
// len(x)·len(y) of w; writes len(y) elements of y.
TEXT ·panelDot(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R9
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ w_base+48(FP), DX
	SHRQ $1, CX            // input pairs
	SHRQ $4, R9            // output blocks
	JZ   done

block:
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
	XORQ AX, AX            // pair index
	TESTQ CX, CX
	JZ   store

pair:
	MOVL   (SI)(AX*4), X0  // x[2k], x[2k+1]
	PSHUFD $0, X0, X0      // broadcast the pair to all four lanes
	MOVOU  (DX), X1
	MOVOU  16(DX), X2
	MOVOU  32(DX), X3
	MOVOU  48(DX), X8
	PMADDWL X0, X1
	PMADDWL X0, X2
	PMADDWL X0, X3
	PMADDWL X0, X8
	PADDD  X1, X4
	PADDD  X2, X5
	PADDD  X3, X6
	PADDD  X8, X7
	ADDQ   $64, DX
	INCQ   AX
	CMPQ   AX, CX
	JLT    pair

store:
	MOVOU X4, (DI)
	MOVOU X5, 16(DI)
	MOVOU X6, 32(DI)
	MOVOU X7, 48(DI)
	ADDQ  $64, DI
	DECQ  R9
	JNZ   block

done:
	RET
