//go:build !purego

#include "textflag.h"

// AVX-512 bodies of the transforms' passes (kernel_fast.go), the arithmetic
// of kernel_ref.go lane for lane, as kernel_amd64.s's AVX2 bodies but eight
// lanes wide: inside a transform a block of eight complex values is 128
// bytes, one ZMM register of their real parts and one of their imaginary
// parts. They use AVX-512F and DQ alone — no VL: every EVEX op has a ZMM
// operand, and the 256-bit loads and adds are VEX ops on Y0–Y15 — and no
// FMA (make lint: no-fma). Every TEXT block ends in VZEROUPPER; RET.
//
// As in the AVX2 bodies, the reference's t3 = i·d = (−di, dr) is never
// formed: t1 + t3 is (t1r − di, t1i + dr) and t1 − t3 is (t1r + di,
// t1i − dr), which IEEE 754 makes bitwise equal.

// CMUL8 sets (outr, outi) = (br·wr − bi·wi, br·wi + bi·wr) for eight
// values, the reference's complex multiply operand for operand; wr and wi
// may be memory operands. Clobbers t.
#define CMUL8(br, bi, wr, wi, outr, outi, t) \
	VMULPD wr, br, outr;  \
	VMULPD wi, bi, t;     \
	VSUBPD t, outr, outr; \
	VMULPD wi, br, outi;  \
	VMULPD wr, bi, t;     \
	VADDPD t, outi, outi

// LOAD4 loads two legs of four blocks, 128 bytes apart from SI, from the
// 32 bytes at off of each block, which hold one 16-byte piece of each leg:
// x gets the first pieces and y the second, block j in 128-bit lane j.
// Clobbers Z8, Z9.
#define LOAD4(off, x, y) \
	VMOVUPD      off(SI), Y8;             \
	VINSERTF64X4 $1, off+128(SI), Z8, Z8; \
	VMOVUPD      off+256(SI), Y9;         \
	VINSERTF64X4 $1, off+384(SI), Z9, Z9; \
	VSHUFF64X2   $0x88, Z9, Z8, x;        \
	VSHUFF64X2   $0xdd, Z9, Z8, y

// STORE4 is LOAD4's inverse through DI: lane j of x and lane j of y, 32
// bytes, go to byte off of block j. The lane picks are in Z30 and Z31
// (interleaveLanes). Clobbers x and Z18.
#define STORE4(x, y, off) \
	VMOVAPD       x, Z18;             \
	VPERMT2PD     y, Z30, Z18;        \
	VPERMT2PD     y, Z31, x;          \
	VEXTRACTF64X4 $0, Z18, off(DI);     \
	VEXTRACTF64X4 $1, Z18, off+128(DI); \
	VEXTRACTF64X4 $0, x, off+256(DI);   \
	VEXTRACTF64X4 $1, x, off+384(DI)

// interleaveLanes: the VPERMT2PD picks, a byte per qword (VPMOVZXBQ), that
// take two registers x and y (qwords 0–7 and 8–15) to (x.L0, y.L0, x.L1,
// y.L1) and (x.L2, y.L2, x.L3, y.L3), L the 128-bit lanes.
DATA interleaveLanes<>+0(SB)/8, $0x0b0a030209080100
DATA interleaveLanes<>+8(SB)/8, $0x0f0e07060d0c0504
GLOBL interleaveLanes<>(SB), RODATA|NOPTR, $16

// func fwdStage4AVX512(buf *complex128, n, s int, tw *float64)
// One radix-4 DIF stage, eight butterflies per iteration: leg j of
// butterflies k … k+7 is one block. tw is the stage's eight-value table,
// 384 bytes per eight butterflies: w1, w2 and w3 in turn, real parts then
// imaginary parts.
TEXT ·fwdStage4AVX512(SB), NOSPLIT, $0-32
	// SI walks buf and DX is its end; R8 = q·16 is the byte distance
	// between the four legs, R9 = 3·R8; R10 is the table.
	MOVQ buf+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ s+16(FP), R8
	MOVQ tw+24(FP), R10
	SHLQ $4, DX
	ADDQ SI, DX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9

fwd8Block:
	MOVQ R10, DI
	MOVQ R8, CX

fwd8Oct:
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD (SI)(R8*2), Z2
	VMOVUPD 64(SI)(R8*2), Z3
	VADDPD  Z2, Z0, Z4            // t0 = a0 + a2
	VSUBPD  Z2, Z0, Z5            // t1 = a0 − a2
	VADDPD  Z3, Z1, Z6
	VSUBPD  Z3, Z1, Z7
	VMOVUPD (SI)(R8*1), Z0
	VMOVUPD 64(SI)(R8*1), Z1
	VMOVUPD (SI)(R9*1), Z2
	VMOVUPD 64(SI)(R9*1), Z3
	VADDPD  Z2, Z0, Z8            // t2 = a1 + a3
	VSUBPD  Z2, Z0, Z9            // d  = a1 − a3
	VADDPD  Z3, Z1, Z10
	VSUBPD  Z3, Z1, Z11
	VADDPD  Z8, Z4, Z0
	VADDPD  Z10, Z6, Z1
	VMOVUPD Z0, (SI)              // t0 + t2
	VMOVUPD Z1, 64(SI)
	VSUBPD  Z8, Z4, Z4            // b2 = t0 − t2
	VSUBPD  Z10, Z6, Z6
	VSUBPD  Z11, Z5, Z0           // b1 = t1 + t3
	VADDPD  Z9, Z7, Z1
	VADDPD  Z11, Z5, Z2           // b3 = t1 − t3
	VSUBPD  Z9, Z7, Z3
	CMUL8(Z0, Z1, (DI), 64(DI), Z8, Z9, Z10)
	CMUL8(Z4, Z6, 128(DI), 192(DI), Z11, Z12, Z13)
	CMUL8(Z2, Z3, 256(DI), 320(DI), Z14, Z15, Z5)
	VMOVUPD Z8, (SI)(R8*1)
	VMOVUPD Z9, 64(SI)(R8*1)
	VMOVUPD Z11, (SI)(R8*2)
	VMOVUPD Z12, 64(SI)(R8*2)
	VMOVUPD Z14, (SI)(R9*1)
	VMOVUPD Z15, 64(SI)(R9*1)
	ADDQ    $128, SI
	ADDQ    $384, DI
	SUBQ    $128, CX
	JNZ     fwd8Oct
	ADDQ    R9, SI
	CMPQ    SI, DX
	JB      fwd8Block
	VZEROUPPER
	RET

// PAIR8 is the radix-2 pass over one leg of four q = 2 blocks, one block
// per 128-bit lane: its values k = 0, 1 are adjacent positions, so s gets
// u0 + u1 and d gets u0 − u1, each an interleaved (re, im) per lane.
// Clobbers Z16, Z17.
#define PAIR8(re, im, s, d) \
	VUNPCKLPD im, re, Z16; \
	VUNPCKHPD im, re, Z17; \
	VADDPD    Z17, Z16, s; \
	VSUBPD    Z17, Z16, d

// func fwdTailAVX512(buf *complex128, n int, tw *float64)
// The forward transform's last two passes, the q = 2 radix-4 stage and the
// radix-2 pass, over four blocks of eight values per iteration, reading
// block-planar values and writing interleaved ones in place; n is a
// positive multiple of 32. A register holds a leg of the four blocks, one
// per 128-bit lane, so tw, the stage's eight-value table, holds each
// constant as (k0, k1, k0, k1, …).
TEXT ·fwdTailAVX512(SB), NOSPLIT, $0-24
	MOVQ      buf+0(FP), SI
	MOVQ      n+8(FP), CX
	MOVQ      tw+16(FP), R10
	MOVQ      SI, DI
	VPMOVZXBQ interleaveLanes<>+0(SB), Z30
	VPMOVZXBQ interleaveLanes<>+8(SB), Z31

tail8Loop:
	LOAD4(0, Z0, Z2)              // a0, a1: real parts
	LOAD4(32, Z4, Z6)             // a2, a3
	LOAD4(64, Z1, Z3)             // imaginary parts
	LOAD4(96, Z5, Z7)
	VADDPD  Z4, Z0, Z8            // t0
	VSUBPD  Z4, Z0, Z0            // t1
	VADDPD  Z5, Z1, Z4
	VSUBPD  Z5, Z1, Z1
	VADDPD  Z6, Z2, Z5            // t2
	VSUBPD  Z6, Z2, Z2            // d
	VADDPD  Z7, Z3, Z6
	VSUBPD  Z7, Z3, Z3
	VADDPD  Z5, Z8, Z7            // t0 + t2
	VADDPD  Z6, Z4, Z9
	VSUBPD  Z5, Z8, Z8            // b2
	VSUBPD  Z6, Z4, Z4
	VSUBPD  Z3, Z0, Z5            // b1
	VADDPD  Z2, Z1, Z6
	VADDPD  Z3, Z0, Z0            // b3
	VSUBPD  Z2, Z1, Z1
	CMUL8(Z5, Z6, (R10), 64(R10), Z10, Z11, Z2)
	CMUL8(Z8, Z4, 128(R10), 192(R10), Z12, Z13, Z2)
	CMUL8(Z0, Z1, 256(R10), 320(R10), Z14, Z15, Z2)
	PAIR8(Z7, Z9, Z20, Z21)       // values 0, 1 of each block
	STORE4(Z20, Z21, 0)
	PAIR8(Z10, Z11, Z22, Z23)     // values 2, 3
	STORE4(Z22, Z23, 32)
	PAIR8(Z12, Z13, Z24, Z25)     // values 4, 5
	STORE4(Z24, Z25, 64)
	PAIR8(Z14, Z15, Z26, Z27)     // values 6, 7
	STORE4(Z26, Z27, 96)
	ADDQ    $512, SI
	ADDQ    $512, DI
	SUBQ    $32, CX
	JNZ     tail8Loop
	VZEROUPPER
	RET

// DIT4T8 takes x0 in Z0/Z1 and v1, v2, v3 in Z2/Z3, Z5/Z6, Z7/Z8 to the
// radix-4 DIT terms: t0 in Z9/Z5, t1 in Z0/Z1, t2 in Z4/Z6, d in Z2/Z3.
// The outputs are t0 + t2, t1 − t3, t0 − t2 and t1 + t3.
#define DIT4T8 \
	VADDPD Z5, Z0, Z9; \
	VSUBPD Z5, Z0, Z0; \
	VADDPD Z6, Z1, Z5; \
	VSUBPD Z6, Z1, Z1; \
	VADDPD Z7, Z2, Z4; \
	VSUBPD Z7, Z2, Z2; \
	VADDPD Z8, Z3, Z6; \
	VSUBPD Z8, Z3, Z3

// HEAD8 is the inverse radix-2 pass over values 2j and 2j+1 of four
// blocks, p and q (interleaved, one block per 128-bit lane): their sum and
// difference are leg j's k = 0 and k = 1, block-planar in re and im.
// Clobbers Z16, Z17.
#define HEAD8(p, q, re, im) \
	VADDPD    q, p, Z16;     \
	VSUBPD    q, p, Z17;     \
	VUNPCKLPD Z17, Z16, re;  \
	VUNPCKHPD Z17, Z16, im

// func invHeadAVX512(dst, src *complex128, n int, tw *float64)
// The inverse transform's first two passes, the radix-2 pass and the q = 2
// radix-4 stage, over four blocks of eight values per iteration: src holds
// interleaved values and is only read, dst gets block-planar ones; n is a
// positive multiple of 32 and tw is laid out as fwdTailAVX512's.
TEXT ·invHeadAVX512(SB), NOSPLIT, $0-32
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      n+16(FP), CX
	MOVQ      tw+24(FP), R10
	VPMOVZXBQ interleaveLanes<>+0(SB), Z30
	VPMOVZXBQ interleaveLanes<>+8(SB), Z31

head8Loop:
	LOAD4(0, Z26, Z27)            // values 0, 1 of the four blocks
	LOAD4(32, Z24, Z25)           // values 2, 3
	HEAD8(Z24, Z25, Z0, Z1)
	CMUL8(Z0, Z1, (R10), 64(R10), Z2, Z3, Z4)       // v1 = x1·w1
	LOAD4(64, Z24, Z25)           // values 4, 5
	HEAD8(Z24, Z25, Z0, Z1)
	CMUL8(Z0, Z1, 128(R10), 192(R10), Z5, Z6, Z4)   // v2 = x2·w2
	LOAD4(96, Z24, Z25)           // values 6, 7
	HEAD8(Z24, Z25, Z0, Z1)
	CMUL8(Z0, Z1, 256(R10), 320(R10), Z7, Z8, Z4)   // v3 = x3·w3
	HEAD8(Z26, Z27, Z0, Z1)
	DIT4T8
	VADDPD  Z4, Z9, Z10           // t0 + t2, at k
	VADDPD  Z6, Z5, Z11
	VADDPD  Z3, Z0, Z12           // t1 − t3, at k + 2
	VSUBPD  Z2, Z1, Z13
	VSUBPD  Z4, Z9, Z14           // t0 − t2, at k + 4
	VSUBPD  Z6, Z5, Z15
	VSUBPD  Z3, Z0, Z16           // t1 + t3, at k + 6
	VADDPD  Z2, Z1, Z17
	STORE4(Z10, Z12, 0)           // real parts
	STORE4(Z14, Z16, 32)
	STORE4(Z11, Z13, 64)          // imaginary parts
	STORE4(Z15, Z17, 96)
	ADDQ    $512, SI
	ADDQ    $512, DI
	SUBQ    $32, CX
	JNZ     head8Loop
	VZEROUPPER
	RET

// DITV8 loads leg x (its real part at re, its imaginary part at im) and
// sets (outr, outi) = x·w. Clobbers Z0, Z1, Z4.
#define DITV8(re, im, wr, wi, outr, outi) \
	VMOVUPD re, Z0; \
	VMOVUPD im, Z1; \
	CMUL8(Z0, Z1, wr, wi, outr, outi, Z4)

// DIT48 is the DIT butterfly over the four legs at SI, R8 bytes apart (R9 =
// 3·R8), with the twiddles of the 384-byte table entry at DI.
#define DIT48 \
	DITV8((SI)(R8*1), 64(SI)(R8*1), (DI), 64(DI), Z2, Z3);     \
	DITV8((SI)(R8*2), 64(SI)(R8*2), 128(DI), 192(DI), Z5, Z6); \
	DITV8((SI)(R9*1), 64(SI)(R9*1), 256(DI), 320(DI), Z7, Z8); \
	VMOVUPD (SI), Z0;                                          \
	VMOVUPD 64(SI), Z1;                                        \
	DIT4T8

// func invStage4AVX512(buf *complex128, n, s int, tw *float64)
// One radix-4 DIT stage, eight butterflies per iteration; registers and tw
// as in fwdStage4AVX512.
TEXT ·invStage4AVX512(SB), NOSPLIT, $0-32
	MOVQ buf+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ s+16(FP), R8
	MOVQ tw+24(FP), R10
	SHLQ $4, DX
	ADDQ SI, DX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9

inv8Block:
	MOVQ R10, DI
	MOVQ R8, CX

inv8Oct:
	DIT48
	VADDPD  Z4, Z9, Z7
	VADDPD  Z6, Z5, Z8
	VMOVUPD Z7, (SI)              // t0 + t2
	VMOVUPD Z8, 64(SI)
	VSUBPD  Z4, Z9, Z7
	VSUBPD  Z6, Z5, Z8
	VMOVUPD Z7, (SI)(R8*2)        // t0 − t2
	VMOVUPD Z8, 64(SI)(R8*2)
	VADDPD  Z3, Z0, Z7
	VSUBPD  Z2, Z1, Z8
	VMOVUPD Z7, (SI)(R8*1)        // t1 − t3
	VMOVUPD Z8, 64(SI)(R8*1)
	VSUBPD  Z3, Z0, Z7
	VADDPD  Z2, Z1, Z8
	VMOVUPD Z7, (SI)(R9*1)        // t1 + t3
	VMOVUPD Z8, 64(SI)(R9*1)
	ADDQ    $128, SI
	ADDQ    $384, DI
	SUBQ    $128, CX
	JNZ     inv8Oct
	ADDQ    R9, SI
	CMPQ    SI, DX
	JB      inv8Block
	VZEROUPPER
	RET

// ROUND8 is roundToTorus for eight values x, op for op, with AVX-512DQ's
// truncating converts: t = int64(x), x − float64(t), int64 of that doubled,
// their sum, and its low dwords (mod 2^32) into y, x's low 256 bits. As
// CVTTSD2SQ, VCVTTPD2QQ gives 2^63's bit pattern where x is out of range,
// so the two agree on every input. Clobbers t, u.
#define ROUND8(x, t, u, y) \
	VCVTTPD2QQ x, t;    \
	VCVTQQ2PD  t, u;    \
	VSUBPD     u, x, x; \
	VADDPD     x, x, x; \
	VCVTTPD2QQ x, x;    \
	VPADDQ     x, t, x; \
	VPMOVQD    x, y

// FOLD8 is foldAccRef for eight positions: x = y·u, with u's real and
// imaginary parts as memory operands, each part rounded to the torus and
// added into the eight words at dlo (real parts) and dhi (imaginary
// parts). Clobbers Z10–Z13.
#define FOLD8(yr, yi, ur, ui, dlo, dhi) \
	CMUL8(yr, yi, ur, ui, Z10, Z11, Z12); \
	ROUND8(Z10, Z12, Z13, Y10);           \
	VPADDD  dlo, Y10, Y10;                \
	VMOVDQU Y10, dlo;                     \
	ROUND8(Z11, Z12, Z13, Y11);           \
	VPADDD  dhi, Y11, Y11;                \
	VMOVDQU Y11, dhi

// func invFoldAVX512(dst *uint32, src *complex128, q int, tw, untwist *float64)
// The last inverse stage fused with the fold, eight k per iteration: it
// spans the whole transform, so m = 4q and q ≥ 8. tw is the stage's table
// and untwist the processor's, both eight-value block-planar: 128 bytes per
// eight positions, the real parts then the imaginary parts.
TEXT ·invFoldAVX512(SB), NOSPLIT, $0-40
	// SI, DI, R8, R9 as in invStage4AVX512; BX walks untwist, which has the
	// layout of src; AX walks dst's real half and DX its imaginary half,
	// 4q bytes (R11, R12 = 3·R11) between legs.
	MOVQ dst+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ q+16(FP), R8
	MOVQ tw+24(FP), DI
	MOVQ untwist+32(FP), BX
	LEAQ (R8*4), R11
	LEAQ (R11)(R11*2), R12
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (AX)(R8*1), DX
	MOVQ R8, CX

fold8Oct:
	DIT48
	VADDPD Z4, Z9, Z7
	VADDPD Z6, Z5, Z8
	FOLD8(Z7, Z8, (BX), 64(BX), (AX), (DX))                           // t0 + t2, at k
	VSUBPD Z4, Z9, Z7
	VSUBPD Z6, Z5, Z8
	FOLD8(Z7, Z8, (BX)(R8*2), 64(BX)(R8*2), (AX)(R11*2), (DX)(R11*2)) // t0 − t2, at k + 2q
	VADDPD Z3, Z0, Z7
	VSUBPD Z2, Z1, Z8
	FOLD8(Z7, Z8, (BX)(R8*1), 64(BX)(R8*1), (AX)(R11*1), (DX)(R11*1)) // t1 − t3, at k + q
	VSUBPD Z3, Z0, Z7
	VADDPD Z2, Z1, Z8
	FOLD8(Z7, Z8, (BX)(R9*1), 64(BX)(R9*1), (AX)(R12*1), (DX)(R12*1)) // t1 + t3, at k + 3q
	ADDQ   $128, SI
	ADDQ   $384, DI
	ADDQ   $128, BX
	ADDQ   $32, AX
	ADDQ   $32, DX
	SUBQ   $128, CX
	JNZ    fold8Oct
	VZEROUPPER
	RET

// TWIST8 stores one block of eight pairs of one level, digits a in Z6 and
// b in Z7 as doubles: re = a·tr − b·ti and im = a·ti + b·tr, the
// reference's expression operand for operand, with tr and ti read from the
// twist planes at byte tw, stored block-planar at byte out of the level's
// buffer: the eight real parts, then the eight imaginary parts. Clobbers
// Z6–Z9.
#define TWIST8(tw, out) \
	VMULPD  tw(DI)(AX*2), Z6, Z8;  \
	VMULPD  tw(R12)(AX*2), Z7, Z9; \
	VSUBPD  Z9, Z8, Z8;            \
	VMULPD  tw(R12)(AX*2), Z6, Z6; \
	VMULPD  tw(DI)(AX*2), Z7, Z7;  \
	VADDPD  Z7, Z6, Z6;            \
	VMOVUPD Z8, out(DX)(AX*4);     \
	VMOVUPD Z6, out+64(DX)(AX*4)

// func decompLoadAVX512(dp *unsafe.Pointer, lb int, twr, twi *float64, pa, pb, sa, sb *uint32, lo, cnt int, na, nb, sub, rhalf, mask, rshift, bl uint32)
// decompLoadAVX2 sixteen pairs, two eight-value blocks, per iteration: lo
// is a multiple of eight and cnt a positive multiple of sixteen. Integer
// lanes are ZMM dwords.
TEXT ·decompLoadAVX512(SB), NOSPLIT, $0-108
	// Registers as in decompLoadAVX2; na and nb stay in Z16 and Z17.
	MOVQ         dp+0(FP), R10
	MOVQ         twr+16(FP), DI
	MOVQ         twi+24(FP), R12
	MOVQ         pa+32(FP), R8
	MOVQ         pb+40(FP), R9
	MOVQ         sa+48(FP), SI
	MOVQ         sb+56(FP), R11
	MOVQ         lo+64(FP), R13
	MOVQ         cnt+72(FP), BX
	SHLQ         $4, R13
	XORQ         AX, AX
	VBROADCASTSS na+80(FP), Z16
	VBROADCASTSS nb+84(FP), Z17
	VBROADCASTSS sub+88(FP), Z14
	VBROADCASTSS rhalf+92(FP), Z15
	VBROADCASTSS mask+96(FP), Z10
	VPSRLD       $1, Z10, Z11       // half − 1
	VBROADCASTSS rshift+100(FP), Z13
	VBROADCASTSS bl+104(FP), Z12

decomp16:
	VPXORD       (R8)(AX*1), Z16, Z0
	VPSUBD       Z16, Z0, Z0
	VPANDD       (SI)(AX*1), Z14, Z5
	VPSUBD       Z5, Z0, Z0
	VPADDD       Z15, Z0, Z0
	VPSRLVD      Z13, Z0, Z0        // ra
	VPXORD       (R9)(AX*1), Z17, Z1
	VPSUBD       Z17, Z1, Z1
	VPANDD       (R11)(AX*1), Z14, Z5
	VPSUBD       Z5, Z1, Z1
	VPADDD       Z15, Z1, Z1
	VPSRLVD      Z13, Z1, Z1        // rb
	VPXORD       Z2, Z2, Z2         // carries of a and b
	VPXORD       Z3, Z3, Z3
	MOVQ         lb+8(FP), CX

decomp16Level:
	// Lowest level first: d = (r & mask) + carry,
	// carry = (d + half − 1) >> bl, digit = d − carry << bl.
	VPANDD        Z10, Z0, Z4
	VPADDD        Z2, Z4, Z4
	VPSRLVD       Z12, Z0, Z0
	VPADDD        Z11, Z4, Z2
	VPSRLVD       Z12, Z2, Z2
	VPSLLVD       Z12, Z2, Z6
	VPSUBD        Z6, Z4, Z4        // a of pairs 0–15
	VPANDD        Z10, Z1, Z5
	VPADDD        Z3, Z5, Z5
	VPSRLVD       Z12, Z1, Z1
	VPADDD        Z11, Z5, Z3
	VPSRLVD       Z12, Z3, Z3
	VPSLLVD       Z12, Z3, Z6
	VPSUBD        Z6, Z5, Z5        // b of pairs 0–15
	MOVQ          -8(R10)(CX*8), DX
	ADDQ          R13, DX
	VCVTDQ2PD     Y4, Z6
	VCVTDQ2PD     Y5, Z7
	TWIST8(0, 0)                    // pairs 0–7
	VEXTRACTI64X4 $1, Z4, Y6
	VCVTDQ2PD     Y6, Z6
	VEXTRACTI64X4 $1, Z5, Y7
	VCVTDQ2PD     Y7, Z7
	TWIST8(64, 128)                 // pairs 8–15
	DECQ          CX
	JNZ           decomp16Level
	ADDQ          $64, AX
	SUBQ          $16, BX
	JNZ           decomp16
	VZEROUPPER
	RET
