package fft

import (
	"unsafe"

	"repro/internal/poly"
	"repro/internal/torus"
)

// The SIMD paths of each transform (kernel_amd64.s, kernel_avx512_amd64.s)
// and the tile MAC's. unsafe appears only to hand the assembly its
// pointers.
//
// Inside a transform that takes one, the data is block-planar: each block
// of w complex values — w = 4 on the AVX2 path, 64 bytes, and w = 8 on the
// AVX-512 path, 128 bytes — holds their w real parts and then their w
// imaginary parts, so one register holds one part of w butterflies and a
// complex multiply is plain multiplies and adds. A FourierPoly (what the
// MAC, the key and the wire hold) stays interleaved: the forward
// transform's last pass and the inverse's first convert.

// width returns the block width a transform of this processor takes now:
// 8 at the AVX-512 level where the processor has eight-value bodies
// (Processor.eight), 4 at the AVX2 level or above where m ≥ 16 (a radix-4
// stage with q ≥ 4), and 0 — the reference — otherwise. Each call of a
// transform reads it once, so a switch of the kernels while it runs cannot
// mix two layouts in one buffer.
func (p *Processor) width() int {
	switch s := torus.CurrentSIMD(); {
	case s >= torus.AVX512 && p.eight:
		return 8
	case s >= torus.AVX2 && p.m >= 16:
		return 4
	}
	return 0
}

// toPlanar rewrites buf, interleaved, as block-planar with blocks of w
// values in place; len(buf) is a multiple of w, 4 or 8. toInterleaved
// undoes it.
func toPlanar(buf []complex128, w int) {
	var t [16]float64
	for b := 0; b+w <= len(buf); b += w {
		blk := buf[b : b+w]
		for l, v := range blk {
			t[l], t[w+l] = real(v), imag(v)
		}
		for l := range blk {
			blk[l] = complex(t[2*l], t[2*l+1])
		}
	}
}

func toInterleaved(buf []complex128, w int) {
	var t [16]float64
	for b := 0; b+w <= len(buf); b += w {
		blk := buf[b : b+w]
		for l, v := range blk {
			t[2*l], t[2*l+1] = real(v), imag(v)
		}
		for l := range blk {
			blk[l] = complex(t[l], t[w+l])
		}
	}
}

// table points at the stage's block-planar twiddles for blocks of w
// values.
func (st *stage) table(w int) *float64 {
	if w == 8 {
		return unsafe.SliceData(st.planar8)
	}
	return unsafe.SliceData(st.planar)
}

// untwistTable is the fold's block-planar untwist for blocks of w values.
func (p *Processor) untwistTable(w int) []float64 {
	if w == 8 {
		return p.untwistPlanar8
	}
	return p.untwistPlanar
}

// forwardPlanar runs the forward stages over buf, block-planar with blocks
// of w values, and leaves the interleaved FourierPoly: the radix-4 stages
// with q ≥ w in place, then the tail. Where m is 2·4^j the tail is one
// pass, the q = 2 stage and the radix-2 pass fused, that writes
// interleaved values; where m is 4^j (w = 4 only) it is the q = 1 stage,
// which has only the reference body, after a conversion.
func (p *Processor) forwardPlanar(buf []complex128, w int) {
	data, n := unsafe.SliceData(buf), len(buf)
	i := 0
	for ; p.fwd[i].size >= 4*w; i++ {
		st := &p.fwd[i]
		if w == 8 {
			fwdStage4AVX512(data, n, st.size, st.table(w))
		} else {
			fwdStage4AVX2(data, n, st.size, st.table(w))
		}
	}
	switch st := &p.fwd[i]; {
	case st.size == 8 && w == 8:
		fwdTailAVX512(data, n, st.table(w))
	case st.size == 8:
		fwdTailAVX2(data, n, st.table(w))
	default:
		toInterleaved(buf, w)
		fwdStage4Ref(buf, *st)
	}
}

// inversePlanar is inverseAccTo's block-planar path with blocks of w
// values: the head reads fp, interleaved, and writes scratch block-planar —
// one pass, the radix-2 pass and the q = 2 stage fused, where m is 2·4^j;
// the size-4 reference stage and a conversion where m is 4^j (w = 4 only)
// — then the radix-4 stages with q ≥ w run in place and the fold, q ≥ w
// too, adds into dst.
func (p *Processor) inversePlanar(dst []torus.Torus32, fp FourierPoly, scratch []complex128, w int) {
	data, n := unsafe.SliceData(scratch), len(scratch)
	stages, i := p.inv, 2
	switch {
	case stages[0].size == 2 && w == 8:
		invHeadAVX512(data, unsafe.SliceData(fp), n, stages[1].table(w))
	case stages[0].size == 2:
		invHeadAVX2(data, unsafe.SliceData(fp), n, stages[1].table(w))
	default:
		invFirstRef(scratch, fp, stages[0].size)
		toPlanar(scratch, w)
		i = 1
	}
	last := len(stages) - 1
	for ; i < last; i++ {
		if w == 8 {
			invStage4AVX512(data, n, stages[i].size, stages[i].table(w))
		} else {
			invStage4AVX2(data, n, stages[i].size, stages[i].table(w))
		}
	}
	fold, q, untwist := &stages[last], p.m>>2, unsafe.SliceData(p.untwistTable(w))
	if w == 8 {
		invFoldAVX512(unsafe.SliceData(dst), data, q, fold.table(w), untwist)
	} else {
		invFoldAVX2(unsafe.SliceData(dst), data, q, fold.table(w), untwist)
	}
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
	if cols != 2 || n == 0 || n%2 != 0 || rows > maxTileRows || torus.CurrentSIMD() < torus.AVX2 {
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

// decompLoadPlanar is the fused decompose+twist load in the block-planar
// layout with blocks of w values, of src itself or of src·X^e − src
// (rotSub, e in [0, 2N)): each level's buffer is left block-planar. Its
// SIMD bodies extract digits branchlessly — rounding folds into a masked
// add, and the balanced-range borrow becomes carry = (d + B/2 − 1) >>
// baseLog, which is 1 exactly when the digit exceeds B/2 — and they are
// identical to Decomposer.DigitsTo's (pinned by test). BaseLog 32 would
// overflow the branchless carry and takes the reference, converted.
//
// The rotation costs an index offset and a sign mask, not a pass: with
// k = e mod N, the coefficient decomposed at x is
// (src[(x−k) mod N] ^ neg) − neg − (src[x] & sub), where neg is all ones
// when exactly one of "x−k wrapped below zero" and "e ≥ N" holds, and sub
// is all ones for the rot-sub load and zero for the plain one (k = 0: the
// value is src[x]). Both halves of a folded pair keep their offset and
// sign on either side of c = k mod N/2, so the walk is two straight runs.
// A body writes two whole blocks, 2w pairs, per step, so each run gives it
// the blocks that lie inside it, and a run's last step, when 2w do not
// divide it, is the 2w pairs ending at its end: it overlaps the step
// before and writes the shared pairs with the same bits again. What the
// runs leave over — the block that holds c when w does not divide c, and
// a run of a single block — takes the body over the 2w pairs around it
// with their values computed here (rotSubRef), so the body has no offset
// or sign left to apply.
func (p *Processor) decompLoadPlanar(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool, w int) {
	lb := dec.Level
	m, n := p.m, p.n
	if uint(dec.BaseLog) >= 32 || lb > 32 {
		p.decompLoadRef(dsts, dec, src, e, rotSub, 0, m)
		for _, d := range dsts {
			toPlanar(d, w)
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
	// load runs the body over cnt pairs from pair j, reading pair j+i's
	// halves from pa, pb, sa and sb at i.
	load := func(pa, pb, sa, sb *uint32, j, cnt int, na, nb, sub uint32) {
		if w == 8 {
			decompLoadAVX512(&dp[0], lb, &tw[j], &tw[m+j], pa, pb, sa, sb, j, cnt, na, nb, sub, rhalf, mask, rshift, bl)
		} else {
			decompLoadAVX2(&dp[0], lb, &tw[j], &tw[m+j], pa, pb, sa, sb, j, cnt, na, nb, sub, rhalf, mask, rshift, bl)
		}
	}

	var k int
	var flip, sub uint32
	if rotSub {
		k, sub = e, ^uint32(0)
		if k >= n {
			k, flip = k-n, ^uint32(0)
		}
	}
	c, step := k%m, 2*w
	runs := [2][2]int{{0, c &^ (w - 1)}, {(c + w - 1) &^ (w - 1), m}}
	for _, run := range runs {
		lo, hi := run[0], run[1]
		if hi-lo < step {
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
		cnt := (hi - lo) &^ (step - 1)
		load(word(lo+oa), word(lo+ob), word(lo), word(lo+m), lo, cnt, na, nb, sub)
		if j := hi - step; lo+cnt < hi {
			load(word(j+oa), word(j+ob), word(j), word(j+m), j, step, na, nb, sub)
		}
	}
	// group loads the 2w pairs from min(j, m−2w) through the body from
	// their values (only a rotation leaves pairs over).
	group := func(j int) {
		j = min(j, m-step)
		var v [32]torus.Torus32
		for x := range step {
			v[x], v[step+x] = rotSubRef(s, j+x, e), rotSubRef(s, j+x+m, e)
		}
		va, vb := (*uint32)(&v[0]), (*uint32)(&v[step])
		load(va, vb, va, vb, j, step, 0, 0, 0)
	}
	if c%w != 0 {
		group(c &^ (w - 1))
	}
	for _, run := range runs {
		if run[1]-run[0] == w {
			group(run[0])
		}
	}
}
