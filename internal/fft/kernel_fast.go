package fft

import (
	"unsafe"

	"repro/internal/poly"
	"repro/internal/torus"
)

// The fast path's entry to each CMux loop: its AVX2 body (kernel_amd64.s)
// when torus.UseAVX2 holds and the shape fits, its kernel_ref.go body
// otherwise. unsafe appears only to hand the assembly its pointers.

func fwdStage4Fast(buf []complex128, st stage) {
	if st.size>>2 >= 2 && torus.UseAVX2() {
		fwdStage4AVX2(unsafe.SliceData(buf), len(buf), st.size, unsafe.SliceData(st.lanes))
		return
	}
	fwdStage4Ref(buf, st)
}

func fwdStage2Fast(buf []complex128) {
	if len(buf)%4 == 0 && torus.UseAVX2() {
		stage2AVX2(unsafe.SliceData(buf), unsafe.SliceData(buf), len(buf))
		return
	}
	fwdStage2Ref(buf)
}

func invFirstFast(dst, src []complex128, size int) {
	if size == 2 && len(src)%4 == 0 && torus.UseAVX2() {
		stage2AVX2(unsafe.SliceData(dst), unsafe.SliceData(src), len(src))
		return
	}
	invFirstRef(dst, src, size)
}

func invStage4Fast(buf []complex128, st stage) {
	if st.size>>2 >= 2 && torus.UseAVX2() {
		invStage4AVX2(unsafe.SliceData(buf), len(buf), st.size, unsafe.SliceData(st.lanes))
		return
	}
	invStage4Ref(buf, st)
}

// invFoldFast is invFoldRef; its AVX2 body reads lanes, laneTable(untwist, 1),
// in place of untwist.
func invFoldFast(dst []torus.Torus32, src []complex128, st stage, untwist, lanes []float64, m int) {
	if q := st.size >> 2; q >= 2 && torus.UseAVX2() {
		// The fold stage spans the transform (st.size == m): the body
		// takes both from q.
		invFoldAVX2(unsafe.SliceData(dst), unsafe.SliceData(src), q, unsafe.SliceData(st.lanes), unsafe.SliceData(lanes))
		return
	}
	invFoldRef(dst, src, st, untwist, m)
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

// decompLoadFast is the fused decompose+twist load, of src itself or of
// src·X^e − src (rotSub, e in [0, 2N)). Its AVX2 body extracts digits
// branchlessly — rounding folds into a masked add, and the balanced-range
// borrow becomes carry = (d + B/2 − 1) >> baseLog, which is 1 exactly when
// the digit exceeds B/2 — and they are identical to Decomposer.DigitsTo's
// (pinned by test). BaseLog 32 would overflow the branchless carry and
// takes the reference.
//
// The rotation costs an index offset and a sign mask, not a pass: with
// k = e mod N, the coefficient decomposed at x is
// (src[(x−k) mod N] ^ neg) − neg − (src[x] & sub), where neg is all ones
// when exactly one of "x−k wrapped below zero" and "e ≥ N" holds, and sub
// is all ones for the rot-sub load and zero for the plain one (k = 0: the
// value is src[x]). Both halves of a folded pair keep their offset and
// sign on either side of j = k mod N/2, so the walk is two straight runs.
// The AVX2 body takes each run eight pairs at a time, general in the level
// count, and a run's last group, when eight do not divide it, is the eight
// pairs ending at hi: it overlaps the group before, and with the run's own
// offsets and signs it writes the shared pairs with the same bits again.
// decompLoadRef takes a run shorter than eight pairs.
func (p *Processor) decompLoadFast(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool) {
	lb := dec.Level
	m, n := p.m, p.n
	if uint(dec.BaseLog) >= 32 || lb > 32 || !torus.UseAVX2() {
		p.decompLoadRef(dsts, dec, src, e, rotSub, 0, m)
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

	var k int
	var flip, sub uint32
	if rotSub {
		k, sub = e, ^uint32(0)
		if k >= n {
			k, flip = k-n, ^uint32(0)
		}
	}
	sp := (*uint32)(unsafe.Pointer(unsafe.SliceData(src.Coeffs)))
	twr, twi := &p.twist[0], &p.twist[m]
	for lo, hi := 0, k%m; lo < m; lo, hi = hi, m {
		if hi-lo < 8 {
			p.decompLoadRef(dsts, dec, src, e, rotSub, lo, hi)
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
		decompLoadAVX2(&dp[0], lb, twr, twi, sp, oa, ob, m, lo, cnt, na, nb, sub, rhalf, mask, rshift, bl)
		if lo+cnt < hi {
			decompLoadAVX2(&dp[0], lb, twr, twi, sp, oa, ob, m, hi-8, 8, na, nb, sub, rhalf, mask, rshift, bl)
		}
	}
}
