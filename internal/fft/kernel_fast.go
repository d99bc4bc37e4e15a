package fft

import (
	"unsafe"

	"repro/internal/poly"
	"repro/internal/torus"
)

// The AVX2 path of each transform (kernel_amd64.s) and the tile MAC's.
// unsafe appears only to hand the assembly its pointers.
//
// Inside a transform that takes it, the data is block-planar: each run of
// four complex values, 64 bytes, holds their four real parts and then
// their four imaginary parts, so one register holds one part of four
// butterflies and a complex multiply is plain multiplies and adds. A
// FourierPoly (what the MAC, the key and the wire hold) stays interleaved:
// the forward transform's last pass and the inverse's first convert.

// planar reports whether a transform of this processor takes the AVX2
// path. Each call of a transform reads it once, so a switch of the kernels
// while it runs cannot mix the two layouts in one buffer. The path needs a
// radix-4 stage with q ≥ 4: m ≥ 16.
func (p *Processor) planar() bool { return p.m >= 16 && torus.UseAVX2() }

// toPlanar rewrites buf, interleaved, as block-planar in place; len(buf)
// is a multiple of four. toInterleaved undoes it.
func toPlanar(buf []complex128) {
	for b := 0; b+4 <= len(buf); b += 4 {
		c := (*[4]complex128)(buf[b : b+4])
		v0, v1, v2, v3 := c[0], c[1], c[2], c[3]
		c[0], c[1] = complex(real(v0), real(v1)), complex(real(v2), real(v3))
		c[2], c[3] = complex(imag(v0), imag(v1)), complex(imag(v2), imag(v3))
	}
}

func toInterleaved(buf []complex128) {
	for b := 0; b+4 <= len(buf); b += 4 {
		c := (*[4]complex128)(buf[b : b+4])
		v0, v1, v2, v3 := c[0], c[1], c[2], c[3]
		c[0], c[1] = complex(real(v0), real(v2)), complex(imag(v0), imag(v2))
		c[2], c[3] = complex(real(v1), real(v3)), complex(imag(v1), imag(v3))
	}
}

// forwardPlanar runs the forward stages over buf, block-planar, and leaves
// the interleaved FourierPoly: the radix-4 stages with q ≥ 4 in place, then
// the tail. Where m is 2·4^j the tail is one pass, the q = 2 stage and the
// radix-2 pass fused, that writes interleaved values; where m is 4^j it is
// the q = 1 stage, which has only the reference body, after a conversion.
func (p *Processor) forwardPlanar(buf []complex128) {
	i := 0
	for ; p.fwd[i].size >= 16; i++ {
		st := p.fwd[i]
		fwdStage4AVX2(unsafe.SliceData(buf), len(buf), st.size, unsafe.SliceData(st.planar))
	}
	if st := p.fwd[i]; st.size == 8 {
		fwdTailAVX2(unsafe.SliceData(buf), len(buf), unsafe.SliceData(st.planar))
		return
	}
	toInterleaved(buf)
	fwdStage4Ref(buf, p.fwd[i])
}

// inversePlanar is inverseAccTo's AVX2 path: the head reads fp,
// interleaved, and writes scratch block-planar — one pass, the radix-2
// pass and the q = 2 stage fused, where m is 2·4^j; the size-4 reference
// stage and a conversion where m is 4^j — then the radix-4 stages with
// q ≥ 4 run in place and the fold, q ≥ 4 too, adds into dst.
func (p *Processor) inversePlanar(dst []torus.Torus32, fp FourierPoly, scratch []complex128) {
	stages, i := p.inv, 2
	if stages[0].size == 2 {
		invHeadAVX2(unsafe.SliceData(scratch), unsafe.SliceData(fp), len(fp), unsafe.SliceData(stages[1].planar))
	} else {
		invFirstRef(scratch, fp, stages[0].size)
		toPlanar(scratch)
		i = 1
	}
	last := len(stages) - 1
	for ; i < last; i++ {
		invStage4AVX2(unsafe.SliceData(scratch), len(scratch), stages[i].size, unsafe.SliceData(stages[i].planar))
	}
	invFoldAVX2(unsafe.SliceData(dst), unsafe.SliceData(scratch), p.m>>2, unsafe.SliceData(stages[last].planar), unsafe.SliceData(p.untwistPlanar))
}

// maxTileRows bounds the key rows, (k+1)·lb, of the tile MAC's pointer
// tables: k = 1 at every level count NewDecomposer allows. A larger key
// takes the reference.
const maxTileRows = 64

// mulAccTileFast walks the tile TileGroup members at a time through
// pointer tables: kp[2r+c] is key row r's column c, the slab's polynomial
// at (2r+c)·n, dp[TileGroup·r+t] member t's digit r and ap[2t+c] its
// accumulator c. The AVX2 body takes two columns (k = 1, every parameter
// set) and an even length; any other shape runs the reference.
func mulAccTileFast(accs, digs [][]FourierPoly, key FourierPoly) {
	cols, n := len(accs[0]), len(accs[0][0])
	rows := len(digs[0])
	if cols != 2 || n == 0 || n%2 != 0 || rows > maxTileRows || !torus.UseAVX2() {
		mulAccTileRef(accs, digs, key)
		return
	}
	var kp [2 * maxTileRows]unsafe.Pointer
	kb := unsafe.Pointer(unsafe.SliceData(key))
	for i := range rows * cols {
		kp[i] = unsafe.Add(kb, uintptr(i*n)*16)
	}
	for lo := 0; lo < len(accs); lo += TileGroup {
		g := min(TileGroup, len(accs)-lo)
		var dp [TileGroup * maxTileRows]unsafe.Pointer
		var ap [2 * TileGroup]unsafe.Pointer
		for t := 0; t < g; t++ {
			for r, d := range digs[lo+t] {
				dp[TileGroup*r+t] = unsafe.Pointer(unsafe.SliceData(d))
			}
			ap[2*t] = unsafe.Pointer(unsafe.SliceData(accs[lo+t][0]))
			ap[2*t+1] = unsafe.Pointer(unsafe.SliceData(accs[lo+t][1]))
		}
		mulAccTileAVX2(&ap[0], &dp[0], &kp[0], g, rows, n)
	}
}

// decompLoadPlanar is the fused decompose+twist load in the AVX2 layout,
// of src itself or of src·X^e − src (rotSub, e in [0, 2N)): each level's
// buffer is left block-planar. Its AVX2 body extracts digits
// branchlessly — rounding folds into a masked add, and the balanced-range
// borrow becomes carry = (d + B/2 − 1) >> baseLog, which is 1 exactly when
// the digit exceeds B/2 — and they are identical to Decomposer.DigitsTo's
// (pinned by test). BaseLog 32 would overflow the branchless carry and
// takes the reference, converted.
//
// The rotation costs an index offset and a sign mask, not a pass: with
// k = e mod N, the coefficient decomposed at x is
// (src[(x−k) mod N] ^ neg) − neg − (src[x] & sub), where neg is all ones
// when exactly one of "x−k wrapped below zero" and "e ≥ N" holds, and sub
// is all ones for the rot-sub load and zero for the plain one (k = 0: the
// value is src[x]). Both halves of a folded pair keep their offset and
// sign on either side of c = k mod N/2, so the walk is two straight runs.
// The AVX2 body writes whole blocks, eight pairs per step, so each run
// gives it the blocks that lie inside it, and a run's last step, when
// eight do not divide it, is the eight pairs ending at its end: it
// overlaps the step before and writes the shared pairs with the same bits
// again. What the runs leave over — the block that holds c when four do
// not divide c, and a run of a single block — takes the body over the
// eight pairs around it with their values computed here (rotSubRef), so
// the body has no offset or sign left to apply.
func (p *Processor) decompLoadPlanar(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool) {
	lb := dec.Level
	m, n := p.m, p.n
	if uint(dec.BaseLog) >= 32 || lb > 32 {
		p.decompLoadRef(dsts, dec, src, e, rotSub, 0, m)
		for _, d := range dsts {
			toPlanar(d)
		}
		return
	}
	bl := uint32(dec.BaseLog)
	var dp [32]unsafe.Pointer
	for l := 0; l < lb; l++ {
		dp[l] = unsafe.Pointer(unsafe.SliceData(dsts[l]))
	}
	rshift := 32 - bl*uint32(lb)
	var rhalf uint32
	if rshift > 0 {
		rhalf = 1 << (rshift - 1)
	}
	mask := uint32(1)<<bl - 1
	tw := p.twist
	s := src.Coeffs
	word := func(x int) *uint32 { return (*uint32)(&s[x]) }

	var k int
	var flip, sub uint32
	if rotSub {
		k, sub = e, ^uint32(0)
		if k >= n {
			k, flip = k-n, ^uint32(0)
		}
	}
	c := k % m
	runs := [2][2]int{{0, c &^ 3}, {(c + 3) &^ 3, m}}
	for _, run := range runs {
		lo, hi := run[0], run[1]
		if hi-lo < 8 {
			continue
		}
		// Over [lo, hi) neither rotated index wraps and neither sign
		// changes, so each is fixed once per run.
		oa, ob := -k, m-k
		na, nb := flip, flip
		if lo+oa < 0 {
			oa, na = oa+n, ^flip
		}
		if lo+ob < 0 {
			ob, nb = ob+n, ^flip
		}
		cnt := (hi - lo) &^ 7
		decompLoadAVX2(&dp[0], lb, &tw[lo], &tw[m+lo], word(lo+oa), word(lo+ob), word(lo), word(lo+m), lo, cnt, na, nb, sub, rhalf, mask, rshift, bl)
		if j := hi - 8; lo+cnt < hi {
			decompLoadAVX2(&dp[0], lb, &tw[j], &tw[m+j], word(j+oa), word(j+ob), word(j), word(j+m), j, 8, na, nb, sub, rhalf, mask, rshift, bl)
		}
	}
	// group loads the eight pairs from min(j, m−8) through the body from
	// their values (only a rotation leaves pairs over).
	group := func(j int) {
		j = min(j, m-8)
		var v [16]torus.Torus32
		for x := range 8 {
			v[x], v[8+x] = rotSubRef(s, j+x, e), rotSubRef(s, j+x+m, e)
		}
		va, vb := (*uint32)(&v[0]), (*uint32)(&v[8])
		decompLoadAVX2(&dp[0], lb, &tw[j], &tw[m+j], va, vb, va, vb, j, 8, 0, 0, 0, rhalf, mask, rshift, bl)
	}
	if c%4 != 0 {
		group(c &^ 3)
	}
	for _, run := range runs {
		if run[1]-run[0] == 4 {
			group(run[0])
		}
	}
}
