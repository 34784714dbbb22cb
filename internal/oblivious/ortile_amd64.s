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
