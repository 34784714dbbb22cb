//go:build amd64 && !purego

#include "textflag.h"

// func quantDotsAVX2(sums *int32, a, w *byte, kb, n32, n8 int)
//
// Dot products of one activation row with every weight column. The row
// holds u8 activations a' ∈ [1,63]; each 32-byte weight vector holds four
// s8 depths w' ∈ [1,127] of eight columns. Per four depths, VPBROADCASTD
// copies the row's four bytes to all eight dwords, VPMADDUBSW multiplies
// them with a weight vector and sums adjacent pairs into words (≤ 16 002,
// so nothing saturates), and VPMADDWD against words of 1 sums word pairs
// into the eight columns' dwords, which VPADDD accumulates: the exact
// integer Σ a'w' of the SWAR kernel. Four weight vectors (32 columns)
// share each broadcast below n32, one vector at a time up to n8. The
// weight cursor R12 walks the weights in order; the activation counter CX
// and the column counter DX are loop counters; the only conditional jumps
// are back-edges on them. No vector reaches a general-purpose register or
// the flags.
TEXT ·quantDotsAVX2(SB), NOSPLIT, $0-48
	MOVQ     sums+0(FP), DI
	MOVQ     a+8(FP), SI
	MOVQ     w+16(FP), R8
	MOVQ     kb+24(FP), BX
	MOVQ     n32+32(FP), R9
	MOVQ     n8+40(FP), R10
	VPCMPEQQ Y15, Y15, Y15
	VPSRLW   $15, Y15, Y15
	XORQ     DX, DX
	XORQ     R12, R12
	JMP      c32test

c32:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  CX, CX

k32:
	VPBROADCASTD (SI)(CX*1), Y4
	VPMADDUBSW   (R8)(R12*1), Y4, Y5
	VPMADDUBSW   32(R8)(R12*1), Y4, Y6
	VPMADDUBSW   64(R8)(R12*1), Y4, Y7
	VPMADDUBSW   96(R8)(R12*1), Y4, Y8
	VPMADDWD     Y15, Y5, Y5
	VPMADDWD     Y15, Y6, Y6
	VPMADDWD     Y15, Y7, Y7
	VPMADDWD     Y15, Y8, Y8
	VPADDD       Y5, Y0, Y0
	VPADDD       Y6, Y1, Y1
	VPADDD       Y7, Y2, Y2
	VPADDD       Y8, Y3, Y3
	ADDQ         $128, R12
	ADDQ         $4, CX
	CMPQ         CX, BX
	JLT          k32

	VMOVDQU Y0, (DI)(DX*4)
	VMOVDQU Y1, 32(DI)(DX*4)
	VMOVDQU Y2, 64(DI)(DX*4)
	VMOVDQU Y3, 96(DI)(DX*4)
	ADDQ    $32, DX

c32test:
	CMPQ DX, R9
	JLT  c32
	JMP  c8test

c8:
	VPXOR Y0, Y0, Y0
	XORQ  CX, CX

k8:
	VPBROADCASTD (SI)(CX*1), Y4
	VPMADDUBSW   (R8)(R12*1), Y4, Y5
	VPMADDWD     Y15, Y5, Y5
	VPADDD       Y5, Y0, Y0
	ADDQ         $32, R12
	ADDQ         $4, CX
	CMPQ         CX, BX
	JLT          k8

	VMOVDQU Y0, (DI)(DX*4)
	ADDQ    $8, DX

c8test:
	CMPQ DX, R10
	JLT  c8

	VZEROUPPER
	RET
