//go:build !purego

#include "textflag.h"

// AVX2 bodies of the fast kernels' loops (kernel_fast.go), each entered from
// inside its *Fast function: two complex values per YMM register, the
// arithmetic of kernel_ref.go lane for lane. No FMA anywhere (make lint:
// no-fma) — a fused multiply-add rounds once where the reference rounds
// twice. Every TEXT block ends in VZEROUPPER; RET: a dirty upper half taxes
// every SSE-encoded float operation Go code runs afterwards.

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

// TILEMAC adds one member's digit, times row r's two key columns, into
// its accumulators: CMUL with the key split once per row, (wr, wr) and
// (wi, wi) in Y8/Y9 (column 0) and Y10/Y11 (column 1), and the digit
// swapped once for both columns. slot is the member's entry in the digit
// table at R12. Clobbers R11, Y12–Y15.
#define TILEMAC(slot, acc0, acc1) \
	MOVQ      slot(R12), R11;     \
	VMOVUPD   (R11)(AX*1), Y12;   \
	VPERMILPD $5, Y12, Y13;       \
	VMULPD    Y8, Y12, Y14;       \
	VMULPD    Y9, Y13, Y15;       \
	VADDSUBPD Y15, Y14, Y15;      \
	VADDPD    Y15, acc0, acc0;    \
	VMULPD    Y10, Y12, Y14;      \
	VMULPD    Y11, Y13, Y15;      \
	VADDSUBPD Y15, Y14, Y15;      \
	VADDPD    Y15, acc1, acc1

// TILESTORE stores one member's two accumulators through the table at R10.
#define TILESTORE(off, acc0, acc1) \
	MOVQ    off(R10), R11;        \
	VMOVUPD acc0, (R11)(AX*1);    \
	MOVQ    off+8(R10), R11;      \
	VMOVUPD acc1, (R11)(AX*1)

// func mulAccTileAVX2(acc, dig, key *unsafe.Pointer, members, rows, n int)
// The tile MAC for two columns (k = 1), two coefficients per iteration:
// the 2·members accumulators live in Y0–Y7 from +0 through every row, in
// row order, and are stored once. key[2r+c] is row r's column c,
// dig[4r+t] member t's digit r, acc[2t+c] its accumulator c; members is
// 1–4, rows ≥ 1 and n even.
TEXT ·mulAccTileAVX2(SB), NOSPLIT, $0-48
	// AX is the byte offset of the coefficient pair, CX its end; R10 walks
	// the key table, R12 the digit table, DX counts rows; BX = members.
	MOVQ members+24(FP), BX
	MOVQ n+40(FP), CX
	SHLQ $4, CX
	XORQ AX, AX
tilePair:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   key+16(FP), R10
	MOVQ   dig+8(FP), R12
	MOVQ   rows+32(FP), DX
tileRow:
	MOVQ      (R10), R11
	VMOVDDUP  (R11)(AX*1), Y8
	VPERMILPD $15, (R11)(AX*1), Y9
	MOVQ      8(R10), R11
	VMOVDDUP  (R11)(AX*1), Y10
	VPERMILPD $15, (R11)(AX*1), Y11
	TILEMAC(0, Y0, Y1)
	CMPQ      BX, $2
	JB        tileRowDone
	TILEMAC(8, Y2, Y3)
	CMPQ      BX, $3
	JB        tileRowDone
	TILEMAC(16, Y4, Y5)
	CMPQ      BX, $4
	JB        tileRowDone
	TILEMAC(24, Y6, Y7)
tileRowDone:
	ADDQ $16, R10
	ADDQ $32, R12
	DECQ DX
	JNZ  tileRow
	MOVQ acc+0(FP), R10
	TILESTORE(0, Y0, Y1)
	CMPQ BX, $2
	JB   tileStored
	TILESTORE(16, Y2, Y3)
	CMPQ BX, $3
	JB   tileStored
	TILESTORE(32, Y4, Y5)
	CMPQ BX, $4
	JB   tileStored
	TILESTORE(48, Y6, Y7)
tileStored:
	ADDQ $32, AX
	CMPQ AX, CX
	JB   tilePair
	VZEROUPPER
	RET

// func stage2AVX2(dst, src *complex128, n int)
// The radix-2 pass, (a, b) → (a + b, a − b) over adjacent values, four per
// iteration; n is a positive multiple of four and dst may be src.
TEXT ·stage2AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
s2Quad:
	VMOVUPD    (SI), Y0             // a0 b0
	VMOVUPD    32(SI), Y1           // a1 b1
	VPERM2F128 $0x20, Y1, Y0, Y2    // a0 a1
	VPERM2F128 $0x31, Y1, Y0, Y3    // b0 b1
	VADDPD     Y3, Y2, Y0
	VSUBPD     Y3, Y2, Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VMOVUPD    Y2, (DI)
	VMOVUPD    Y3, 32(DI)
	ADDQ       $64, SI
	ADDQ       $64, DI
	SUBQ       $4, CX
	JNZ        s2Quad
	VZEROUPPER
	RET

// foldConst: 1.5·2^84 (adding then subtracting it rounds to a multiple of
// 2^32), 1.5·2^52 (adding it leaves an integer's low 32 bits in the low
// dword), and the dword picks that gather them as [re0 re1 im0 im1].
DATA foldConst<>+0(SB)/8, $0x4538000000000000
DATA foldConst<>+8(SB)/8, $0x4338000000000000
DATA foldConst<>+16(SB)/8, $0x0000000400000000
DATA foldConst<>+24(SB)/8, $0x0000000600000002
GLOBL foldConst<>(SB), RODATA|NOPTR, $32

// FOLD is foldAccFast for two outputs y at once: x = y·u, roundToTorus op
// for op — t = trunc x, r = trunc((x − t)·2), s = t + r, each exact — then
// s mod 2^32 without a 64-bit convert: hi = (s + 1.5·2^84) − 1.5·2^84 is s
// to the nearest 2^32, lo = s − hi is exact with |lo| ≤ 2^31, and the low
// dwords of lo + 1.5·2^52 are lo mod 2^32. They are added into dlo (real
// parts) and dhi (imaginary parts). Clobbers Y1–Y3.
#define FOLD(y, u, dlo, dhi) \
	VMOVUPD  u, Y1;        \
	CMUL(y, Y1, Y2, Y3);   \
	VROUNDPD $3, Y2, Y3;   \
	VSUBPD   Y3, Y2, Y2;   \
	VADDPD   Y2, Y2, Y2;   \
	VROUNDPD $3, Y2, Y2;   \
	VADDPD   Y2, Y3, Y2;   \
	VADDPD   Y12, Y2, Y3;  \
	VSUBPD   Y12, Y3, Y3;  \
	VSUBPD   Y3, Y2, Y2;   \
	VADDPD   Y13, Y2, Y2;  \
	VPERMD   Y2, Y14, Y2;  \
	VMOVQ    dlo, X3;      \
	VMOVHPS  dhi, X3, X3;  \
	VPADDD   X2, X3, X3;   \
	VMOVQ    X3, dlo;      \
	VMOVHPS  X3, dhi

// func invFoldAVX2(dst *uint32, src *complex128, q int, tw, untwist *float64)
// The last inverse stage fused with the fold, two k per iteration: it spans
// the whole transform, so m = 4q and q ≥ 2 is even.
TEXT ·invFoldAVX2(SB), NOSPLIT, $0-40
	// SI, DI, R8, R9 as in invStage4AVX2; BX walks untwist with the same
	// leg distance; AX walks dst's real half and DX its imaginary half, 4q
	// bytes (R11, R12 = 3·R11) between legs.
	MOVQ         dst+0(FP), AX
	MOVQ         src+8(FP), SI
	MOVQ         q+16(FP), R8
	MOVQ         tw+24(FP), DI
	MOVQ         untwist+32(FP), BX
	LEAQ         (R8*4), R11
	LEAQ         (R11)(R11*2), R12
	SHLQ         $4, R8
	LEAQ         (R8)(R8*2), R9
	LEAQ         (AX)(R8*1), DX
	MOVQ         R8, CX
	VMOVUPD      signEven<>(SB), Y15
	VBROADCASTSD foldConst<>+0(SB), Y12
	VBROADCASTSD foldConst<>+8(SB), Y13
	VMOVDQU      foldConst<>+16(SB), X14
foldPair:
	VMOVUPD   (SI), Y0
	VMOVUPD   (SI)(R8*1), Y1
	VMOVUPD   (SI)(R8*2), Y2
	VMOVUPD   (SI)(R9*1), Y3
	TWIDDLES
	CMUL(Y1, Y8, Y4, Y11)       // v1 … v3, then t0 … t3: invStage4AVX2's
	CMUL(Y2, Y9, Y5, Y11)
	CMUL(Y3, Y10, Y6, Y11)
	VADDPD    Y5, Y0, Y8
	VSUBPD    Y5, Y0, Y9
	VADDPD    Y6, Y4, Y10
	VSUBPD    Y6, Y4, Y7
	VPERMILPD $5, Y7, Y7
	VXORPD    Y15, Y7, Y7
	VADDPD    Y10, Y8, Y0       // t0 + t2, at k
	VSUBPD    Y7, Y9, Y4        // t1 − t3, at k + q
	VSUBPD    Y10, Y8, Y5       // t0 − t2, at k + 2q
	VADDPD    Y7, Y9, Y6        // t1 + t3, at k + 3q
	FOLD(Y0, (BX), (AX), (DX))
	FOLD(Y4, (BX)(R8*1), (AX)(R11*1), (DX)(R11*1))
	FOLD(Y5, (BX)(R8*2), (AX)(R11*2), (DX)(R11*2))
	FOLD(Y6, (BX)(R9*1), (AX)(R12*1), (DX)(R12*1))
	ADDQ      $32, SI
	ADDQ      $96, DI
	ADDQ      $32, BX
	ADDQ      $8, AX
	ADDQ      $8, DX
	SUBQ      $32, CX
	JNZ       foldPair
	VZEROUPPER
	RET

// func decompLoadAVX2(dp *unsafe.Pointer, lb int, tw *float64, src *uint32, oa, ob, m, lo, cnt int, na, nb, sub, rhalf, mask uint32, rshift, bl uint)
// One straight run of decompLoadFast, four folded pairs per iteration: cnt
// is a positive multiple of four and lb ≥ 1. Integer lanes are XMM dwords;
// the shifted value is kept between levels, so every shift is by rshift
// (once) or bl, and decompLoadFast's rmask, which only clears bits that the
// first shift drops, is not needed.
TEXT ·decompLoadAVX2(SB), NOSPLIT, $0-112
	// AX = 4j indexes src (R8: the rotated first half, SI: first half, R9:
	// rotated second half, R11: second half) and, scaled by four, twist
	// (DI) and each level's buffer (DX, from the table at R10).
	MOVQ         dp+0(FP), R10
	MOVQ         tw+16(FP), DI
	MOVQ         src+24(FP), SI
	MOVQ         oa+32(FP), R8
	MOVQ         ob+40(FP), R9
	MOVQ         m+48(FP), R11
	MOVQ         lo+56(FP), AX
	MOVQ         cnt+64(FP), BX
	LEAQ         (SI)(R8*4), R8
	LEAQ         (SI)(R9*4), R9
	LEAQ         (SI)(R11*4), R11
	SHLQ         $2, AX
	VBROADCASTSS sub+80(FP), X14
	VBROADCASTSS rhalf+84(FP), X15
	VBROADCASTSS mask+88(FP), X10
	VPSRLD       $1, X10, X11       // half − 1
	VMOVQ        rshift+96(FP), X13
	VMOVQ        bl+104(FP), X12
decompQuad:
	VBROADCASTSS na+72(FP), X4
	VPXOR        (R8)(AX*1), X4, X0
	VPSUBD       X4, X0, X0
	VPAND        (SI)(AX*1), X14, X5
	VPSUBD       X5, X0, X0
	VPADDD       X15, X0, X0
	VPSRLD       X13, X0, X0        // ra
	VBROADCASTSS nb+76(FP), X4
	VPXOR        (R9)(AX*1), X4, X1
	VPSUBD       X4, X1, X1
	VPAND        (R11)(AX*1), X14, X5
	VPSUBD       X5, X1, X1
	VPADDD       X15, X1, X1
	VPSRLD       X13, X1, X1        // rb
	VPERMILPD    $5, (DI)(AX*4), Y8   // (ti, tr) of pairs 0–1
	VPERMILPD    $5, 32(DI)(AX*4), Y9 // and of pairs 2–3
	VPXOR        X2, X2, X2         // carries of a and b
	VPXOR        X3, X3, X3
	MOVQ         lb+8(FP), CX
decompLevel:
	// digitFast, lowest level first: d = (r & mask) + carry,
	// carry = (d + half − 1) >> bl, digit = d − carry << bl.
	VPAND      X10, X0, X4
	VPADDD     X2, X4, X4
	VPSRLD     X12, X0, X0
	VPADDD     X11, X4, X2
	VPSRLD     X12, X2, X2
	VPSLLD     X12, X2, X6
	VPSUBD     X6, X4, X4
	VCVTDQ2PD  X4, Y4               // a0 a1 a2 a3
	VPAND      X10, X1, X5
	VPADDD     X3, X5, X5
	VPSRLD     X12, X1, X1
	VPADDD     X11, X5, X3
	VPSRLD     X12, X3, X3
	VPSLLD     X12, X3, X6
	VPSUBD     X6, X5, X5
	VCVTDQ2PD  X5, Y5               // b0 b1 b2 b3
	// storeTwistedFast: (a·tr − b·ti, a·ti + b·tr) is (a, a)·(tr, ti) ∓
	// (b, b)·(ti, tr), no operation commuted.
	MOVQ       -8(R10)(CX*8), DX
	VPERMPD    $0x50, Y4, Y6
	VMULPD     (DI)(AX*4), Y6, Y6
	VPERMPD    $0x50, Y5, Y7
	VMULPD     Y8, Y7, Y7
	VADDSUBPD  Y7, Y6, Y6
	VMOVUPD    Y6, (DX)(AX*4)
	VPERMPD    $0xFA, Y4, Y6
	VMULPD     32(DI)(AX*4), Y6, Y6
	VPERMPD    $0xFA, Y5, Y7
	VMULPD     Y9, Y7, Y7
	VADDSUBPD  Y7, Y6, Y6
	VMOVUPD    Y6, 32(DX)(AX*4)
	DECQ       CX
	JNZ        decompLevel
	ADDQ       $16, AX
	SUBQ       $4, BX
	JNZ        decompQuad
	VZEROUPPER
	RET
