//go:build !purego

#include "textflag.h"

// AVX2 bodies of the transforms' passes and the tile MAC (kernel_fast.go),
// the arithmetic of kernel_ref.go lane for lane. The kernel set avx2 runs
// all of them; avx512 runs the tile MAC here and the transforms' passes
// here only where a transform has no eight-value bodies (M a power of
// four, set III; kernel_avx512_amd64.s has the others). Inside a transform
// the data is block-planar: a block of four complex values is one register
// of their real parts and one of their imaginary parts, so a complex
// multiply is four multiplies, a subtract and an add, and a butterfly moves
// no value between lanes; only the tail and the head, which convert to and
// from the interleaved FourierPoly, and the tile MAC, which stays on it,
// shuffle data. No FMA anywhere
// (make lint: no-fma) — a fused multiply-add rounds once where the
// reference rounds twice. Every TEXT block ends in VZEROUPPER; RET: a dirty
// upper half taxes every SSE-encoded float operation Go code runs
// afterwards.
//
// The reference's t3 = i·d = (−di, dr) is never formed: t1 + t3 is
// (t1r − di, t1i + dr) and t1 − t3 is (t1r + di, t1i − dr), which IEEE 754
// makes bitwise equal, x + (−y) and x − (−y) being x − y and x + y.

// CMULP sets (outr, outi) = (br·wr − bi·wi, br·wi + bi·wr) for four values,
// the reference's complex multiply operand for operand; wr and wi are
// memory operands. Clobbers t.
#define CMULP(br, bi, wr, wi, outr, outi, t) \
	VMULPD wr, br, outr;  \
	VMULPD wi, bi, t;     \
	VSUBPD t, outr, outr; \
	VMULPD wi, br, outi;  \
	VMULPD wr, bi, t;     \
	VADDPD t, outi, outi

// func fwdStage4AVX2(buf *complex128, n, s int, tw *float64)
// One radix-4 DIF stage, four butterflies per iteration: leg j of
// butterflies k … k+3 is one block. tw is the stage's block-planar table,
// 192 bytes per four butterflies: w1, w2 and w3 in turn, real parts then
// imaginary parts.
TEXT ·fwdStage4AVX2(SB), NOSPLIT, $0-32
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
fwdBlock:
	MOVQ R10, DI
	MOVQ R8, CX
fwdQuad:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD 32(SI)(R8*2), Y3
	VADDPD  Y2, Y0, Y4            // t0 = a0 + a2
	VSUBPD  Y2, Y0, Y5            // t1 = a0 − a2
	VADDPD  Y3, Y1, Y6
	VSUBPD  Y3, Y1, Y7
	VMOVUPD (SI)(R8*1), Y0
	VMOVUPD 32(SI)(R8*1), Y1
	VMOVUPD (SI)(R9*1), Y2
	VMOVUPD 32(SI)(R9*1), Y3
	VADDPD  Y2, Y0, Y8            // t2 = a1 + a3
	VSUBPD  Y2, Y0, Y9            // d  = a1 − a3
	VADDPD  Y3, Y1, Y10
	VSUBPD  Y3, Y1, Y11
	VADDPD  Y8, Y4, Y0
	VADDPD  Y10, Y6, Y1
	VMOVUPD Y0, (SI)              // t0 + t2
	VMOVUPD Y1, 32(SI)
	VSUBPD  Y8, Y4, Y4            // b2 = t0 − t2
	VSUBPD  Y10, Y6, Y6
	VSUBPD  Y11, Y5, Y0           // b1 = t1 + t3
	VADDPD  Y9, Y7, Y1
	VADDPD  Y11, Y5, Y2           // b3 = t1 − t3
	VSUBPD  Y9, Y7, Y3
	CMULP(Y0, Y1, (DI), 32(DI), Y8, Y9, Y10)
	CMULP(Y4, Y6, 64(DI), 96(DI), Y11, Y12, Y13)
	CMULP(Y2, Y3, 128(DI), 160(DI), Y14, Y15, Y5)
	VMOVUPD Y8, (SI)(R8*1)
	VMOVUPD Y9, 32(SI)(R8*1)
	VMOVUPD Y11, (SI)(R8*2)
	VMOVUPD Y12, 32(SI)(R8*2)
	VMOVUPD Y14, (SI)(R9*1)
	VMOVUPD Y15, 32(SI)(R9*1)
	ADDQ    $64, SI
	ADDQ    $192, DI
	SUBQ    $64, CX
	JNZ     fwdQuad
	ADDQ    R9, SI
	CMPQ    SI, DX
	JB      fwdBlock
	VZEROUPPER
	RET

// TAILLOAD loads one leg's part of two q = 2 blocks: the 16 bytes at off of
// the first block (two values' real or imaginary parts) in the low half,
// the same of the next block, 128 bytes on, in the high half.
#define TAILLOAD(x, y, off) \
	VMOVUPD     off(SI), x; \
	VINSERTF128 $1, off+128(SI), y, y

// PAIRSTORE finishes one leg of two q = 2 blocks with the radix-2 pass:
// its values k = 0, 1 are adjacent positions, so u0 + u1 and u0 − u1 of
// each block are stored interleaved at byte off of the block. Clobbers
// Y11–Y13.
#define PAIRSTORE(re, im, off) \
	VUNPCKLPD   im, re, Y11;          \
	VUNPCKHPD   im, re, Y12;          \
	VADDPD      Y12, Y11, Y13;        \
	VSUBPD      Y12, Y11, Y11;        \
	VINSERTF128 $1, X11, Y13, Y12;    \
	VPERM2F128  $0x31, Y11, Y13, Y11; \
	VMOVUPD     Y12, off(SI);         \
	VMOVUPD     Y11, off+128(SI)

// func fwdTailAVX2(buf *complex128, n int, tw *float64)
// The forward transform's last two passes, the q = 2 radix-4 stage and the
// radix-2 pass, over two blocks of eight values per iteration, reading
// block-planar values and writing interleaved ones in place; n is a
// positive multiple of sixteen. A register holds a leg of both blocks, so
// tw, the stage's table, holds each constant as (k0, k1, k0, k1).
TEXT ·fwdTailAVX2(SB), NOSPLIT, $0-24
	MOVQ buf+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ tw+16(FP), DI
tailOct:
	TAILLOAD(X0, Y0, 0)           // a0
	TAILLOAD(X1, Y1, 32)
	TAILLOAD(X2, Y2, 16)          // a1
	TAILLOAD(X3, Y3, 48)
	TAILLOAD(X4, Y4, 64)          // a2
	TAILLOAD(X5, Y5, 96)
	TAILLOAD(X6, Y6, 80)          // a3
	TAILLOAD(X7, Y7, 112)
	VADDPD  Y4, Y0, Y8            // t0
	VSUBPD  Y4, Y0, Y0            // t1
	VADDPD  Y5, Y1, Y4
	VSUBPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y5            // t2
	VSUBPD  Y6, Y2, Y2            // d
	VADDPD  Y7, Y3, Y6
	VSUBPD  Y7, Y3, Y3
	VADDPD  Y5, Y8, Y7            // t0 + t2
	VADDPD  Y6, Y4, Y9
	PAIRSTORE(Y7, Y9, 0)
	VSUBPD  Y5, Y8, Y8            // b2
	VSUBPD  Y6, Y4, Y4
	VSUBPD  Y3, Y0, Y5            // b1
	VADDPD  Y2, Y1, Y6
	VADDPD  Y3, Y0, Y0            // b3
	VSUBPD  Y2, Y1, Y1
	CMULP(Y5, Y6, (DI), 32(DI), Y2, Y3, Y10)
	PAIRSTORE(Y2, Y3, 32)
	CMULP(Y8, Y4, 64(DI), 96(DI), Y2, Y3, Y10)
	PAIRSTORE(Y2, Y3, 64)
	CMULP(Y0, Y1, 128(DI), 160(DI), Y2, Y3, Y10)
	PAIRSTORE(Y2, Y3, 96)
	ADDQ    $256, SI
	SUBQ    $16, CX
	JNZ     tailOct
	VZEROUPPER
	RET

// DITV loads leg x (its real part at re, its imaginary part at im) and
// sets (outr, outi) = x·w. Clobbers Y0, Y1, Y4.
#define DITV(re, im, wr, wi, outr, outi) \
	VMOVUPD re, Y0; \
	VMOVUPD im, Y1; \
	CMULP(Y0, Y1, wr, wi, outr, outi, Y4)

// DIT4T takes x0 in Y0/Y1 and v1, v2, v3 in Y2/Y3, Y5/Y6, Y7/Y8 to the
// radix-4 DIT terms: t0 in Y9/Y5, t1 in Y0/Y1, t2 in Y4/Y6, d in Y2/Y3.
// The outputs are t0 + t2, t1 − t3, t0 − t2 and t1 + t3.
#define DIT4T \
	VADDPD Y5, Y0, Y9; \
	VSUBPD Y5, Y0, Y0; \
	VADDPD Y6, Y1, Y5; \
	VSUBPD Y6, Y1, Y1; \
	VADDPD Y7, Y2, Y4; \
	VSUBPD Y7, Y2, Y2; \
	VADDPD Y8, Y3, Y6; \
	VSUBPD Y8, Y3, Y3

// DIT4 is the DIT butterfly over the four legs at SI, R8 bytes apart (R9 =
// 3·R8), with the twiddles of the 192-byte table entry at DI.
#define DIT4 \
	DITV((SI)(R8*1), 32(SI)(R8*1), (DI), 32(DI), Y2, Y3);     \
	DITV((SI)(R8*2), 32(SI)(R8*2), 64(DI), 96(DI), Y5, Y6);   \
	DITV((SI)(R9*1), 32(SI)(R9*1), 128(DI), 160(DI), Y7, Y8); \
	VMOVUPD (SI), Y0;                                         \
	VMOVUPD 32(SI), Y1;                                       \
	DIT4T

// HEADLEG forms leg (off/32) of two q = 2 blocks from interleaved values:
// the radix-2 pass over the pair at byte off of each block (the second
// block 128 bytes on, in the high half), its sum and difference as the
// leg's k = 0 and k = 1, block-planar in re and im. Clobbers Y10–Y12.
#define HEADLEG(off, re, im) \
	VMOVUPD     off(SI), X10;              \
	VINSERTF128 $1, off+128(SI), Y10, Y10; \
	VMOVUPD     off+16(SI), X11;           \
	VINSERTF128 $1, off+144(SI), Y11, Y11; \
	VADDPD      Y11, Y10, Y12;             \
	VSUBPD      Y11, Y10, Y10;             \
	VUNPCKLPD   Y10, Y12, re;              \
	VUNPCKHPD   Y10, Y12, im

// HEADSTORE stores one part, real or imaginary, of two adjacent output
// legs of two q = 2 blocks: a holds one leg's values k = 0, 1 of both
// blocks and b the next leg's, which together fill that part of a planar
// block, so a's and b's low halves go to byte off of the first block and
// their high halves to byte off of the next. Clobbers Y12, Y13.
#define HEADSTORE(a, xb, b, off) \
	VINSERTF128 $1, xb, a, Y12;   \
	VPERM2F128  $0x31, b, a, Y13; \
	VMOVUPD     Y12, off(DI);     \
	VMOVUPD     Y13, off+128(DI)

// func invHeadAVX2(dst, src *complex128, n int, tw *float64)
// The inverse transform's first two passes, the radix-2 pass and the q = 2
// radix-4 stage, over two blocks of eight values per iteration: src holds
// interleaved values and is only read, dst gets block-planar ones; n is a
// positive multiple of sixteen and tw is laid out as fwdTailAVX2's.
TEXT ·invHeadAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tw+24(FP), R10
headOct:
	HEADLEG(32, Y0, Y1)
	CMULP(Y0, Y1, (R10), 32(R10), Y2, Y3, Y4)      // v1 = x1·w1
	HEADLEG(64, Y0, Y1)
	CMULP(Y0, Y1, 64(R10), 96(R10), Y5, Y6, Y4)    // v2 = x2·w2
	HEADLEG(96, Y0, Y1)
	CMULP(Y0, Y1, 128(R10), 160(R10), Y7, Y8, Y4)  // v3 = x3·w3
	HEADLEG(0, Y0, Y1)
	DIT4T
	VADDPD  Y4, Y9, Y7            // t0 + t2, at k
	VADDPD  Y6, Y5, Y8
	VADDPD  Y3, Y0, Y10           // t1 − t3, at k + 2
	VSUBPD  Y2, Y1, Y11
	HEADSTORE(Y7, X10, Y10, 0)
	HEADSTORE(Y8, X11, Y11, 32)
	VSUBPD  Y4, Y9, Y7            // t0 − t2, at k + 4
	VSUBPD  Y6, Y5, Y8
	VSUBPD  Y3, Y0, Y10           // t1 + t3, at k + 6
	VADDPD  Y2, Y1, Y11
	HEADSTORE(Y7, X10, Y10, 64)
	HEADSTORE(Y8, X11, Y11, 96)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $16, CX
	JNZ     headOct
	VZEROUPPER
	RET

// func invStage4AVX2(buf *complex128, n, s int, tw *float64)
// One radix-4 DIT stage, four butterflies per iteration; registers and tw
// as in fwdStage4AVX2.
TEXT ·invStage4AVX2(SB), NOSPLIT, $0-32
	MOVQ buf+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ s+16(FP), R8
	MOVQ tw+24(FP), R10
	SHLQ $4, DX
	ADDQ SI, DX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
invBlock:
	MOVQ R10, DI
	MOVQ R8, CX
invQuad:
	DIT4
	VADDPD  Y4, Y9, Y7
	VADDPD  Y6, Y5, Y8
	VMOVUPD Y7, (SI)              // t0 + t2
	VMOVUPD Y8, 32(SI)
	VSUBPD  Y4, Y9, Y7
	VSUBPD  Y6, Y5, Y8
	VMOVUPD Y7, (SI)(R8*2)        // t0 − t2
	VMOVUPD Y8, 32(SI)(R8*2)
	VADDPD  Y3, Y0, Y7
	VSUBPD  Y2, Y1, Y8
	VMOVUPD Y7, (SI)(R8*1)        // t1 − t3
	VMOVUPD Y8, 32(SI)(R8*1)
	VSUBPD  Y3, Y0, Y7
	VADDPD  Y2, Y1, Y8
	VMOVUPD Y7, (SI)(R9*1)        // t1 + t3
	VMOVUPD Y8, 32(SI)(R9*1)
	ADDQ    $64, SI
	ADDQ    $192, DI
	SUBQ    $64, CX
	JNZ     invQuad
	ADDQ    R9, SI
	CMPQ    SI, DX
	JB      invBlock
	VZEROUPPER
	RET

// TILEMAC adds one member's digit, times row r's two key columns, into
// its accumulators. The MAC stays on interleaved values, two complex
// values per register: b·w = (br·wr − bi·wi, bi·wr + br·wi) is
// VADDSUBPD(b·(wr, wr), swap(b)·(wi, wi)), with the key split once per
// row, (wr, wr) and (wi, wi) in Y8/Y9 (column 0) and Y10/Y11 (column 1),
// and the digit swapped once for both columns. slot is the member's entry in the digit
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

// foldConst: 1.5·2^84 (adding then subtracting it rounds to a multiple of
// 2^32), 1.5·2^52 (adding it leaves an integer's low 32 bits in the low
// dword), and the dword picks that gather four lanes' low dwords.
DATA foldConst<>+0(SB)/8, $0x4538000000000000
DATA foldConst<>+8(SB)/8, $0x4338000000000000
DATA foldConst<>+16(SB)/8, $0x0000000200000000
DATA foldConst<>+24(SB)/8, $0x0000000600000004
GLOBL foldConst<>(SB), RODATA|NOPTR, $32

// ROUNDQ is roundToTorus for four values x, op for op — t = trunc x,
// r = trunc((x − t)·2), s = t + r, each exact — then s mod 2^32 without a
// 64-bit convert: hi = (s + 1.5·2^84) − 1.5·2^84 is s to the nearest 2^32,
// lo = s − hi is exact with |lo| ≤ 2^31, and the low dwords of lo +
// 1.5·2^52 are lo mod 2^32, gathered into x's low 128 bits. Clobbers t.
#define ROUNDQ(x, t) \
	VROUNDPD $3, x, t; \
	VSUBPD   t, x, x;  \
	VADDPD   x, x, x;  \
	VROUNDPD $3, x, x; \
	VADDPD   x, t, x;  \
	VADDPD   Y13, x, t; \
	VSUBPD   Y13, t, t; \
	VSUBPD   t, x, x;  \
	VADDPD   Y14, x, x; \
	VPERMD   x, Y15, x

// FOLDP is foldAccRef for four positions: x = y·u, with u's real and
// imaginary parts as memory operands, each part rounded to the torus and
// added into the four words at dlo (real parts) and dhi (imaginary parts).
// Clobbers Y10–Y12.
#define FOLDP(yr, yi, ur, ui, dlo, dhi) \
	CMULP(yr, yi, ur, ui, Y10, Y11, Y12); \
	ROUNDQ(Y10, Y12);                     \
	VPADDD  dlo, X10, X10;                \
	VMOVDQU X10, dlo;                     \
	ROUNDQ(Y11, Y12);                     \
	VPADDD  dhi, X11, X11;                \
	VMOVDQU X11, dhi

// func invFoldAVX2(dst *uint32, src *complex128, q int, tw, untwist *float64)
// The last inverse stage fused with the fold, four k per iteration: it
// spans the whole transform, so m = 4q and q ≥ 4. tw is the stage's table
// and untwist the processor's, block-planar: 64 bytes per four positions,
// the real parts then the imaginary parts.
TEXT ·invFoldAVX2(SB), NOSPLIT, $0-40
	// SI, DI, R8, R9 as in invStage4AVX2; BX walks untwist, which has the
	// layout of src; AX walks dst's real half and DX its imaginary half,
	// 4q bytes (R11, R12 = 3·R11) between legs.
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
	VBROADCASTSD foldConst<>+0(SB), Y13
	VBROADCASTSD foldConst<>+8(SB), Y14
	VMOVDQU      foldConst<>+16(SB), X15
foldQuad:
	DIT4
	VADDPD    Y4, Y9, Y7
	VADDPD    Y6, Y5, Y8
	FOLDP(Y7, Y8, (BX), 32(BX), (AX), (DX))                                   // t0 + t2, at k
	VSUBPD    Y4, Y9, Y7
	VSUBPD    Y6, Y5, Y8
	FOLDP(Y7, Y8, (BX)(R8*2), 32(BX)(R8*2), (AX)(R11*2), (DX)(R11*2))         // t0 − t2, at k + 2q
	VADDPD    Y3, Y0, Y7
	VSUBPD    Y2, Y1, Y8
	FOLDP(Y7, Y8, (BX)(R8*1), 32(BX)(R8*1), (AX)(R11*1), (DX)(R11*1))         // t1 − t3, at k + q
	VSUBPD    Y3, Y0, Y7
	VADDPD    Y2, Y1, Y8
	FOLDP(Y7, Y8, (BX)(R9*1), 32(BX)(R9*1), (AX)(R12*1), (DX)(R12*1))         // t1 + t3, at k + 3q
	ADDQ      $64, SI
	ADDQ      $192, DI
	ADDQ      $64, BX
	ADDQ      $16, AX
	ADDQ      $16, DX
	SUBQ      $64, CX
	JNZ       foldQuad
	VZEROUPPER
	RET

// TWIST stores one block of four pairs of one level, digits a in Y6 and b
// in Y7 as doubles: re = a·tr − b·ti and im = a·ti + b·tr, the reference's
// expression operand for operand, with tr and ti read from the twist planes
// at byte tw, stored block-planar at byte out of the level's buffer: the
// four real parts, then the four imaginary parts. Clobbers Y6–Y9.
#define TWIST(tw, out) \
	VMULPD  tw(DI)(AX*2), Y6, Y8;  \
	VMULPD  tw(R12)(AX*2), Y7, Y9; \
	VSUBPD  Y9, Y8, Y8;            \
	VMULPD  tw(R12)(AX*2), Y6, Y6; \
	VMULPD  tw(DI)(AX*2), Y7, Y7;  \
	VADDPD  Y7, Y6, Y6;            \
	VMOVUPD Y8, out(DX)(AX*4);     \
	VMOVUPD Y6, out+32(DX)(AX*4)

// func decompLoadAVX2(dp *unsafe.Pointer, lb int, twr, twi *float64, pa, pb, sa, sb *uint32, lo, cnt int, na, nb, sub, rhalf, mask, rshift, bl uint32)
// Eight folded pairs, two blocks, per iteration, over cnt pairs from pair
// lo: lo is a multiple of four, cnt a positive multiple of eight and
// lb ≥ 1. The value decomposed for pair lo+i is ((pa[i] ^ na) − na −
// (sa[i] & sub), (pb[i] ^ nb) − nb − (sb[i] & sub)), and twr and twi are
// the twist's two planes from lo. Integer lanes are YMM dwords, each shift
// per lane by a broadcast count; the shifted value is kept between levels,
// so every shift is by rshift (once) or bl, and no mask of the bits the
// first shift drops is needed.
TEXT ·decompLoadAVX2(SB), NOSPLIT, $0-108
	// AX = 4i indexes the sources (R8: pa, SI: sa, R9: pb, R11: sb), scaled
	// by two the twist planes (DI, R12) and by four each level's buffer
	// (DX, from the table at R10, plus R13 = 16·lo).
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
	VBROADCASTSS sub+88(FP), Y14
	VBROADCASTSS rhalf+92(FP), Y15
	VBROADCASTSS mask+96(FP), Y10
	VPSRLD       $1, Y10, Y11       // half − 1
	VBROADCASTSS rshift+100(FP), Y13
	VBROADCASTSS bl+104(FP), Y12
decompOct:
	VBROADCASTSS na+80(FP), Y4
	VPXOR        (R8)(AX*1), Y4, Y0
	VPSUBD       Y4, Y0, Y0
	VPAND        (SI)(AX*1), Y14, Y5
	VPSUBD       Y5, Y0, Y0
	VPADDD       Y15, Y0, Y0
	VPSRLVD      Y13, Y0, Y0        // ra
	VBROADCASTSS nb+84(FP), Y4
	VPXOR        (R9)(AX*1), Y4, Y1
	VPSUBD       Y4, Y1, Y1
	VPAND        (R11)(AX*1), Y14, Y5
	VPSUBD       Y5, Y1, Y1
	VPADDD       Y15, Y1, Y1
	VPSRLVD      Y13, Y1, Y1        // rb
	VPXOR        Y2, Y2, Y2         // carries of a and b
	VPXOR        Y3, Y3, Y3
	MOVQ         lb+8(FP), CX
decompLevel:
	// Lowest level first: d = (r & mask) + carry,
	// carry = (d + half − 1) >> bl, digit = d − carry << bl.
	VPAND        Y10, Y0, Y4
	VPADDD       Y2, Y4, Y4
	VPSRLVD      Y12, Y0, Y0
	VPADDD       Y11, Y4, Y2
	VPSRLVD      Y12, Y2, Y2
	VPSLLVD      Y12, Y2, Y6
	VPSUBD       Y6, Y4, Y4         // a of pairs 0–7
	VPAND        Y10, Y1, Y5
	VPADDD       Y3, Y5, Y5
	VPSRLVD      Y12, Y1, Y1
	VPADDD       Y11, Y5, Y3
	VPSRLVD      Y12, Y3, Y3
	VPSLLVD      Y12, Y3, Y6
	VPSUBD       Y6, Y5, Y5         // b of pairs 0–7
	MOVQ         -8(R10)(CX*8), DX
	ADDQ         R13, DX
	VCVTDQ2PD    X4, Y6
	VCVTDQ2PD    X5, Y7
	TWIST(0, 0)                     // pairs 0–3
	VEXTRACTI128 $1, Y4, X6
	VCVTDQ2PD    X6, Y6
	VEXTRACTI128 $1, Y5, X7
	VCVTDQ2PD    X7, Y7
	TWIST(32, 64)                   // pairs 4–7
	DECQ         CX
	JNZ          decompLevel
	ADDQ         $32, AX
	SUBQ         $8, BX
	JNZ          decompOct
	VZEROUPPER
	RET
