//go:build amd64 && !purego

#include "textflag.h"

// func quantDotsAVX2(out *float32, a, w *byte, colOff *int32, scale, bias *float32, row *quantRowEpi, kb, n32, n8 int)
//
// One output row of the int8 product, dequantized. The row holds u8
// activations a' ∈ [1,63]; each 32-byte weight vector holds four s8 depths
// w' ∈ [1,127] of eight columns. Per four depths, VPBROADCASTD copies the
// row's four bytes to all eight dwords, VPMADDUBSW multiplies them with a
// weight vector and sums adjacent pairs into words (≤ 16 002, so nothing
// saturates), and VPMADDWD against words of 1 sums word pairs into the
// eight columns' dwords, which VPADDD accumulates: the exact integer
// Σ a'w' of the SWAR kernel. Four weight vectors (32 columns) share each
// broadcast below n32, one vector at a time up to n8.
//
// Each finished group of eight columns is then dequantized in registers,
// in the Go epilogue's operation order and without FMA, so the floats are
// the SWAR kernel's bit for bit: VPSUBD takes off colOff (actOff·ColSum)
// and the row's corrA with int32 wrap-around, VCVTDQ2PS converts, VMULPS
// multiplies by the row scale rs and then by the column scale, VADDPS adds
// the bias, and VMOVDQU stores the eight floats. rs and corrA come from
// memory behind row. The weight cursor R12 walks the weights in order;
// the activation counter CX and the column counter DX are loop counters;
// the only conditional jumps are back-edges on them. No vector reaches a
// general-purpose register or the flags.
TEXT ·quantDotsAVX2(SB), NOSPLIT, $0-80
	MOVQ         out+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         w+16(FP), R8
	MOVQ         colOff+24(FP), R11
	MOVQ         scale+32(FP), R13
	MOVQ         bias+40(FP), R14
	MOVQ         row+48(FP), AX
	MOVQ         kb+56(FP), BX
	MOVQ         n32+64(FP), R9
	MOVQ         n8+72(FP), R10
	VPBROADCASTD (AX), Y10
	VPBROADCASTD 4(AX), Y9
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLW       $15, Y15, Y15
	XORQ         DX, DX
	XORQ         R12, R12
	JMP          c32test

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

	VPSUBD    (R11)(DX*4), Y0, Y0
	VPSUBD    32(R11)(DX*4), Y1, Y1
	VPSUBD    64(R11)(DX*4), Y2, Y2
	VPSUBD    96(R11)(DX*4), Y3, Y3
	VPSUBD    Y9, Y0, Y0
	VPSUBD    Y9, Y1, Y1
	VPSUBD    Y9, Y2, Y2
	VPSUBD    Y9, Y3, Y3
	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VCVTDQ2PS Y2, Y2
	VCVTDQ2PS Y3, Y3
	VMULPS    Y10, Y0, Y0
	VMULPS    Y10, Y1, Y1
	VMULPS    Y10, Y2, Y2
	VMULPS    Y10, Y3, Y3
	VMULPS    (R13)(DX*4), Y0, Y0
	VMULPS    32(R13)(DX*4), Y1, Y1
	VMULPS    64(R13)(DX*4), Y2, Y2
	VMULPS    96(R13)(DX*4), Y3, Y3
	VADDPS    (R14)(DX*4), Y0, Y0
	VADDPS    32(R14)(DX*4), Y1, Y1
	VADDPS    64(R14)(DX*4), Y2, Y2
	VADDPS    96(R14)(DX*4), Y3, Y3
	VMOVDQU   Y0, (DI)(DX*4)
	VMOVDQU   Y1, 32(DI)(DX*4)
	VMOVDQU   Y2, 64(DI)(DX*4)
	VMOVDQU   Y3, 96(DI)(DX*4)
	ADDQ      $32, DX

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

	VPSUBD    (R11)(DX*4), Y0, Y0
	VPSUBD    Y9, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y10, Y0, Y0
	VMULPS    (R13)(DX*4), Y0, Y0
	VADDPS    (R14)(DX*4), Y0, Y0
	VMOVDQU   Y0, (DI)(DX*4)
	ADDQ      $8, DX

c8test:
	CMPQ DX, R10
	JLT  c8

	VZEROUPPER
	RET

// func quantMaxAVX2(m *uint32, x *float32, n8 int)
//
// The max-abs half of the activation quantizer: VPAND clears the sign bit
// of eight floats at a time and VPMAXUD keeps each lane's largest bit
// pattern (monotone in the magnitude, so no compare is taken), over the
// first n8 elements of x (a multiple of 8). The eight lanes are stored to
// m; Go reduces them. The counter CX is the only loop state.
TEXT ·quantMaxAVX2(SB), NOSPLIT, $0-24
	MOVQ         m+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n8+16(FP), BX
	MOVQ         $0x7FFFFFFF, AX
	VMOVQ        AX, X15
	VPBROADCASTD X15, Y15
	VPXOR        Y0, Y0, Y0
	XORQ         CX, CX
	JMP          maxtest

maxloop:
	VPAND   (SI)(CX*4), Y15, Y1
	VPMAXUD Y1, Y0, Y0
	ADDQ    $8, CX

maxtest:
	CMPQ CX, BX
	JLT  maxloop

	VMOVDQU Y0, (DI)
	VZEROUPPER
	RET

// func quantBytesAVX2(dst *byte, sums *int32, x *float32, inv *float32, n32, n8 int)
//
// The conversion half of the activation quantizer, for the first n8
// elements of x: VMULPS by the row's inverse scale (from memory behind
// inv), VADDPS of actOff+0.5, and VCVTTPS2DQ, which truncates as Go's
// int32() does, give the offset-encoded lanes; VPADDD sums them into the
// eight dwords stored to sums. VPACKUSDW and VPACKUSWB narrow them to
// bytes (the lanes are in [1,63], so nothing saturates but the integer
// indefinite of a NaN, which becomes 0 as Go's byte() makes it), and
// VPERMD undoes the packs' 128-bit lane interleave, so dst holds the
// depths in order. 32 elements per pass below n32, then 8 up to n8 (a
// multiple of 8). The counter CX indexes both x and dst.
TEXT ·quantBytesAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         sums+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         inv+24(FP), R11
	MOVQ         n32+32(FP), BX
	MOVQ         n8+40(FP), R9
	VPBROADCASTD (R11), Y14
	MOVQ         $0x42020000, AX
	VMOVQ        AX, X13
	VPBROADCASTD X13, Y13
	MOVQ         $0x0703060205010400, AX
	VMOVQ        AX, X12
	VPMOVZXBD    X12, Y12
	VPXOR        Y11, Y11, Y11
	XORQ         CX, CX
	JMP          b32test

b32:
	VMULPS     (SI)(CX*4), Y14, Y0
	VMULPS     32(SI)(CX*4), Y14, Y1
	VMULPS     64(SI)(CX*4), Y14, Y2
	VMULPS     96(SI)(CX*4), Y14, Y3
	VADDPS     Y13, Y0, Y0
	VADDPS     Y13, Y1, Y1
	VADDPS     Y13, Y2, Y2
	VADDPS     Y13, Y3, Y3
	VCVTTPS2DQ Y0, Y0
	VCVTTPS2DQ Y1, Y1
	VCVTTPS2DQ Y2, Y2
	VCVTTPS2DQ Y3, Y3
	VPADDD     Y0, Y11, Y11
	VPADDD     Y1, Y11, Y11
	VPADDD     Y2, Y11, Y11
	VPADDD     Y3, Y11, Y11
	VPACKUSDW  Y1, Y0, Y0
	VPACKUSDW  Y3, Y2, Y2
	VPACKUSWB  Y2, Y0, Y0
	VPERMD     Y0, Y12, Y0
	VMOVDQU    Y0, (DI)(CX*1)
	ADDQ       $32, CX

b32test:
	CMPQ CX, BX
	JLT  b32
	JMP  b8test

b8:
	VMULPS     (SI)(CX*4), Y14, Y0
	VADDPS     Y13, Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VPADDD     Y0, Y11, Y11
	VPACKUSDW  Y0, Y0, Y0
	VPACKUSWB  Y0, Y0, Y0
	VPERMD     Y0, Y12, Y0
	VMOVQ      X0, (DI)(CX*1)
	ADDQ       $8, CX

b8test:
	CMPQ CX, R9
	JLT  b8

	VMOVDQU Y11, (R8)
	VZEROUPPER
	RET
