//go:build amd64 && !purego

#include "textflag.h"

// func orTileAVX2(a, t0, t1, t2, t3 *uint64, n int, m0, m1, m2, m3 uint64)
//
// ORs t0&m0 | t1&m1 | t2&m2 | t3&m3 into a, four words per step. n must be
// a positive multiple of 4. The masks go straight from the argument frame
// into Y4–Y7 and no general-purpose register ever holds one; the only
// conditional jump is the loop back-edge on the public counter.
TEXT ·orTileAVX2(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), DI
	MOVQ t0+8(FP), SI
	MOVQ t1+16(FP), R8
	MOVQ t2+24(FP), R9
	MOVQ t3+32(FP), R10
	MOVQ n+40(FP), CX
	VPBROADCASTQ m0+48(FP), Y4
	VPBROADCASTQ m1+56(FP), Y5
	VPBROADCASTQ m2+64(FP), Y6
	VPBROADCASTQ m3+72(FP), Y7
	XORQ AX, AX

loop:
	VPAND   (SI)(AX*8), Y4, Y0
	VPAND   (R8)(AX*8), Y5, Y1
	VPAND   (R9)(AX*8), Y6, Y2
	VPAND   (R10)(AX*8), Y7, Y3
	VPOR    Y1, Y0, Y0
	VPOR    Y3, Y2, Y2
	VPOR    (DI)(AX*8), Y0, Y0
	VPOR    Y2, Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop

	VZEROUPPER
	RET

// func scanBlockAVX2(acc, words, id *uint64, width, w16, w4, r0, n int)
//
// ORs every row of the block at words (n words, rows of width, numbered
// from r0) that holds the id at *id into the accumulator at acc, over the
// first w4 words of each row: sixteen words per column group below w16,
// then four. The id goes from memory straight into Y8, and the row number
// lives only in Y9, seeded from r0 and stepped by subtracting all-ones, so
// each row's mask is one VPCMPEQQ made in registers; no general-purpose
// register holds the id or a mask. A group's accumulators stay in Y0–Y3
// while the row cursor R12, reset from the column counter CX, steps down
// the block by width. The four conditional jumps are back-edges on public
// counters; a JMP enters each group loop at its test, so a loop may run
// zero times.
TEXT ·scanBlockAVX2(SB), NOSPLIT, $0-64
	MOVQ         acc+0(FP), DI
	MOVQ         words+8(FP), SI
	MOVQ         id+16(FP), DX
	MOVQ         width+24(FP), BX
	MOVQ         w16+32(FP), R8
	MOVQ         w4+40(FP), R9
	MOVQ         r0+48(FP), R11
	MOVQ         n+56(FP), R10
	VPBROADCASTQ (DX), Y8
	VMOVQ        R11, X11
	VPBROADCASTQ X11, Y11
	VPCMPEQQ     Y10, Y10, Y10
	XORQ         CX, CX
	JMP          g16test

g16:
	VMOVDQU (DI)(CX*8), Y0
	VMOVDQU 32(DI)(CX*8), Y1
	VMOVDQU 64(DI)(CX*8), Y2
	VMOVDQU 96(DI)(CX*8), Y3
	VMOVDQU Y11, Y9
	MOVQ    CX, R12

rows16:
	VPCMPEQQ Y8, Y9, Y7
	VPAND    (SI)(R12*8), Y7, Y4
	VPAND    32(SI)(R12*8), Y7, Y5
	VPOR     Y4, Y0, Y0
	VPOR     Y5, Y1, Y1
	VPAND    64(SI)(R12*8), Y7, Y4
	VPAND    96(SI)(R12*8), Y7, Y5
	VPOR     Y4, Y2, Y2
	VPOR     Y5, Y3, Y3
	VPSUBQ   Y10, Y9, Y9
	ADDQ     BX, R12
	CMPQ     R12, R10
	JLT      rows16

	VMOVDQU Y0, (DI)(CX*8)
	VMOVDQU Y1, 32(DI)(CX*8)
	VMOVDQU Y2, 64(DI)(CX*8)
	VMOVDQU Y3, 96(DI)(CX*8)
	ADDQ    $16, CX

g16test:
	CMPQ CX, R8
	JLT  g16
	JMP  g4test

g4:
	VMOVDQU (DI)(CX*8), Y0
	VMOVDQU Y11, Y9
	MOVQ    CX, R12

rows4:
	VPCMPEQQ Y8, Y9, Y7
	VPAND    (SI)(R12*8), Y7, Y4
	VPOR     Y4, Y0, Y0
	VPSUBQ   Y10, Y9, Y9
	ADDQ     BX, R12
	CMPQ     R12, R10
	JLT      rows4

	VMOVDQU Y0, (DI)(CX*8)
	ADDQ    $4, CX

g4test:
	CMPQ CX, R9
	JLT  g4

	VZEROUPPER
	RET

// func cpuid(leaf int) (eax, ebx, ecx, edx uint32), sub-leaf 0
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVQ leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
