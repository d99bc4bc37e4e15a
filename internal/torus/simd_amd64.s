//go:build !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulSubAVX2(dst, src *Torus32, n int, d int32)
// dst[i] -= src[i]*d, eight words per iteration; n is a multiple of 8.
TEXT ·mulSubAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVL d+24(FP), AX
	MOVQ AX, X0
	VPBROADCASTD X0, Y0
loop:
	VPMULLD (SI), Y0, Y1
	VMOVDQU (DI), Y2
	VPSUBD  Y1, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     loop
	VZEROUPPER
	RET
