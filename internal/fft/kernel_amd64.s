//go:build !purego

#include "textflag.h"

// AVX2 bodies of fwdStage4Fast, invStage4Fast and mulAccFast: two complex
// values per YMM register, the arithmetic of kernel_ref.go lane for lane.
// No FMA anywhere (make lint: no-fma) — a fused multiply-add rounds once
// where the reference rounds twice.

// signEven flips the sign of the even (real) lanes: after a re/im swap it
// turns d into i·d = (−di, dr).
DATA signEven<>+0(SB)/8, $0x8000000000000000
DATA signEven<>+8(SB)/8, $0
DATA signEven<>+16(SB)/8, $0x8000000000000000
DATA signEven<>+24(SB)/8, $0
GLOBL signEven<>(SB), RODATA|NOPTR, $32

// CMUL sets out = b·w = (br·wr − bi·wi, bi·wr + br·wi), the reference's
// (br·wr − bi·wi, br·wi + bi·wr) with one commuted add: t = b·(wr, wr),
// out = (bi, br)·(wi, wi), then t − out on the even lanes and t + out on
// the odd ones. Clobbers w and t.
#define CMUL(b, w, out, t) \
	VMOVDDUP  w, t;        \
	VMULPD    t, b, t;     \
	VPERMILPD $15, w, w;   \
	VPERMILPD $5, b, out;  \
	VMULPD    w, out, out; \
	VADDSUBPD out, t, out

// TWIDDLES loads w1, w2, w3 of butterflies k (low halves) and k+1 (high
// halves) from the packed table at DI, six floats per butterfly.
#define TWIDDLES \
	VMOVUPD     (DI), X8;          \
	VMOVUPD     16(DI), X9;        \
	VMOVUPD     32(DI), X10;       \
	VINSERTF128 $1, 48(DI), Y8, Y8; \
	VINSERTF128 $1, 64(DI), Y9, Y9; \
	VINSERTF128 $1, 80(DI), Y10, Y10

// func fwdStage4AVX2(buf *complex128, n, s int, tw *float64)
TEXT ·fwdStage4AVX2(SB), NOSPLIT, $0-32
	// SI walks buf and DX is its end; R8 = q·16 is the byte distance
	// between the four legs, R9 = 3·R8; R10 is the twiddle table.
	MOVQ    buf+0(FP), SI
	MOVQ    n+8(FP), DX
	MOVQ    s+16(FP), R8
	MOVQ    tw+24(FP), R10
	SHLQ    $4, DX
	ADDQ    SI, DX
	SHLQ    $2, R8
	LEAQ    (R8)(R8*2), R9
	VMOVUPD signEven<>(SB), Y15
fwdBlock:
	MOVQ R10, DI
	MOVQ R8, CX
fwdPair:
	VMOVUPD   (SI), Y0
	VMOVUPD   (SI)(R8*1), Y1
	VMOVUPD   (SI)(R8*2), Y2
	VMOVUPD   (SI)(R9*1), Y3
	VADDPD    Y2, Y0, Y4        // t0 = a0 + a2
	VSUBPD    Y2, Y0, Y5        // t1 = a0 − a2
	VADDPD    Y3, Y1, Y6        // t2 = a1 + a3
	VSUBPD    Y3, Y1, Y7        // d  = a1 − a3
	VPERMILPD $5, Y7, Y7
	VXORPD    Y15, Y7, Y7       // t3 = i·d
	VADDPD    Y6, Y4, Y0
	VMOVUPD   Y0, (SI)          // t0 + t2
	VADDPD    Y7, Y5, Y1        // b1 = t1 + t3
	VSUBPD    Y6, Y4, Y2        // b2 = t0 − t2
	VSUBPD    Y7, Y5, Y3        // b3 = t1 − t3
	TWIDDLES
	CMUL(Y1, Y8, Y4, Y11)
	CMUL(Y2, Y9, Y5, Y12)
	CMUL(Y3, Y10, Y6, Y13)
	VMOVUPD   Y4, (SI)(R8*1)
	VMOVUPD   Y5, (SI)(R8*2)
	VMOVUPD   Y6, (SI)(R9*1)
	ADDQ      $32, SI
	ADDQ      $96, DI
	SUBQ      $32, CX
	JNZ       fwdPair
	ADDQ      R9, SI
	CMPQ      SI, DX
	JB        fwdBlock
	VZEROUPPER
	RET

// func invStage4AVX2(buf *complex128, n, s int, tw *float64)
TEXT ·invStage4AVX2(SB), NOSPLIT, $0-32
	MOVQ    buf+0(FP), SI       // registers as in fwdStage4AVX2
	MOVQ    n+8(FP), DX
	MOVQ    s+16(FP), R8
	MOVQ    tw+24(FP), R10
	SHLQ    $4, DX
	ADDQ    SI, DX
	SHLQ    $2, R8
	LEAQ    (R8)(R8*2), R9
	VMOVUPD signEven<>(SB), Y15
invBlock:
	MOVQ R10, DI
	MOVQ R8, CX
invPair:
	VMOVUPD   (SI), Y0
	VMOVUPD   (SI)(R8*1), Y1
	VMOVUPD   (SI)(R8*2), Y2
	VMOVUPD   (SI)(R9*1), Y3
	TWIDDLES
	CMUL(Y1, Y8, Y4, Y11)       // v1 = x1·w1
	CMUL(Y2, Y9, Y5, Y12)       // v2 = x2·w2
	CMUL(Y3, Y10, Y6, Y13)      // v3 = x3·w3
	VADDPD    Y5, Y0, Y1        // t0 = x0 + v2
	VSUBPD    Y5, Y0, Y2        // t1 = x0 − v2
	VADDPD    Y6, Y4, Y3        // t2 = v1 + v3
	VSUBPD    Y6, Y4, Y7        // d  = v1 − v3
	VPERMILPD $5, Y7, Y7
	VXORPD    Y15, Y7, Y7       // t3 = i·d
	VADDPD    Y3, Y1, Y0
	VSUBPD    Y7, Y2, Y4
	VSUBPD    Y3, Y1, Y5
	VADDPD    Y7, Y2, Y6
	VMOVUPD   Y0, (SI)          // t0 + t2
	VMOVUPD   Y4, (SI)(R8*1)    // t1 − t3
	VMOVUPD   Y5, (SI)(R8*2)    // t0 − t2
	VMOVUPD   Y6, (SI)(R9*1)    // t1 + t3
	ADDQ      $32, SI
	ADDQ      $96, DI
	SUBQ      $32, CX
	JNZ       invPair
	ADDQ      R9, SI
	CMPQ      SI, DX
	JB        invBlock
	VZEROUPPER
	RET

// func mulAccAVX2(acc, a, b *complex128, n int)
// acc[i] += a[i]·b[i], two per iteration; n is even.
TEXT ·mulAccAVX2(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
macPair:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	CMUL(Y0, Y1, Y2, Y3)
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $2, CX
	JNZ     macPair
	VZEROUPPER
	RET
