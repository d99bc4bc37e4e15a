//go:build !purego

package fft

import (
	"unsafe"

	"repro/internal/poly"
	"repro/internal/torus"
)

// Fast kernels: the arithmetic of kernel_ref.go, expression shape for
// expression shape (see kernel.go), with unsafe pointer walks instead of
// bounds-checked indexing and, where it pays, unrolled loops. Every loop of
// a CMux step — decompose load, the radix-4 and radix-2 stages, the tile MAC,
// the fold — enters an AVX2 body when the host has one, and keeps its Go
// body for the other hosts and for what the lanes leave over. Excluded from
// `purego` builds.

const fastKernelAvailable = true

// f64 loads the float64 at byte offset off from p.
func f64(p unsafe.Pointer, off uintptr) float64 {
	return *(*float64)(unsafe.Add(p, off))
}

func loadTorusFast(dst FourierPoly, src []torus.Torus32, twist []float64) {
	m := len(dst)
	dp := unsafe.Pointer(unsafe.SliceData(dst))
	sp := unsafe.Pointer(unsafe.SliceData(src))
	sph := unsafe.Add(sp, uintptr(m)*4)
	tp := unsafe.Pointer(unsafe.SliceData(twist))
	for j := 0; j < m; j++ {
		ar := float64(int32(*(*torus.Torus32)(sp)))
		ai := float64(int32(*(*torus.Torus32)(sph)))
		tr, ti := f64(tp, 0), f64(tp, 8)
		*(*float64)(dp) = ar*tr - ai*ti
		*(*float64)(unsafe.Add(dp, 8)) = ar*ti + ai*tr
		dp = unsafe.Add(dp, 16)
		sp = unsafe.Add(sp, 4)
		sph = unsafe.Add(sph, 4)
		tp = unsafe.Add(tp, 16)
	}
}

func loadIntFast(dst FourierPoly, src []int32, twist []float64) {
	m := len(dst)
	dp := unsafe.Pointer(unsafe.SliceData(dst))
	sp := unsafe.Pointer(unsafe.SliceData(src))
	sph := unsafe.Add(sp, uintptr(m)*4)
	tp := unsafe.Pointer(unsafe.SliceData(twist))
	for j := 0; j < m; j++ {
		ar := float64(*(*int32)(sp))
		ai := float64(*(*int32)(sph))
		tr, ti := f64(tp, 0), f64(tp, 8)
		*(*float64)(dp) = ar*tr - ai*ti
		*(*float64)(unsafe.Add(dp, 8)) = ar*ti + ai*tr
		dp = unsafe.Add(dp, 16)
		sp = unsafe.Add(sp, 4)
		sph = unsafe.Add(sph, 4)
		tp = unsafe.Add(tp, 16)
	}
}

func fwdStage4Fast(buf []complex128, st stage) {
	s := st.size
	q := s >> 2
	if q >= 2 && torus.UseAVX2() {
		fwdStage4AVX2(unsafe.SliceData(buf), len(buf), s, unsafe.SliceData(st.lanes))
		return
	}
	qb := uintptr(q) * 16
	bp := unsafe.Pointer(unsafe.SliceData(buf))
	twp := unsafe.Pointer(unsafe.SliceData(st.tw))
	for b := 0; b < len(buf); b += s {
		p0 := unsafe.Add(bp, uintptr(b)*16)
		p1 := unsafe.Add(p0, qb)
		p2 := unsafe.Add(p1, qb)
		p3 := unsafe.Add(p2, qb)
		tp := twp
		for k := 0; k < q; k++ {
			a0r, a0i := f64(p0, 0), f64(p0, 8)
			a1r, a1i := f64(p1, 0), f64(p1, 8)
			a2r, a2i := f64(p2, 0), f64(p2, 8)
			a3r, a3i := f64(p3, 0), f64(p3, 8)
			t0r, t0i := a0r+a2r, a0i+a2i
			t1r, t1i := a0r-a2r, a0i-a2i
			t2r, t2i := a1r+a3r, a1i+a3i
			dr, di := a1r-a3r, a1i-a3i
			t3r, t3i := -di, dr
			w1r, w1i := f64(tp, 0), f64(tp, 8)
			w2r, w2i := f64(tp, 16), f64(tp, 24)
			w3r, w3i := f64(tp, 32), f64(tp, 40)
			tp = unsafe.Add(tp, 48)
			b1r, b1i := t1r+t3r, t1i+t3i
			b2r, b2i := t0r-t2r, t0i-t2i
			b3r, b3i := t1r-t3r, t1i-t3i
			*(*float64)(p0) = t0r + t2r
			*(*float64)(unsafe.Add(p0, 8)) = t0i + t2i
			*(*float64)(p1) = b1r*w1r - b1i*w1i
			*(*float64)(unsafe.Add(p1, 8)) = b1r*w1i + b1i*w1r
			*(*float64)(p2) = b2r*w2r - b2i*w2i
			*(*float64)(unsafe.Add(p2, 8)) = b2r*w2i + b2i*w2r
			*(*float64)(p3) = b3r*w3r - b3i*w3i
			*(*float64)(unsafe.Add(p3, 8)) = b3r*w3i + b3i*w3r
			p0 = unsafe.Add(p0, 16)
			p1 = unsafe.Add(p1, 16)
			p2 = unsafe.Add(p2, 16)
			p3 = unsafe.Add(p3, 16)
		}
	}
}

func fwdStage2Fast(buf []complex128) {
	if len(buf)%4 == 0 && torus.UseAVX2() {
		stage2AVX2(unsafe.SliceData(buf), unsafe.SliceData(buf), len(buf))
		return
	}
	p := unsafe.Pointer(unsafe.SliceData(buf))
	for i := 0; i < len(buf); i += 2 {
		a0r, a0i := f64(p, 0), f64(p, 8)
		a1r, a1i := f64(p, 16), f64(p, 24)
		*(*float64)(p) = a0r + a1r
		*(*float64)(unsafe.Add(p, 8)) = a0i + a1i
		*(*float64)(unsafe.Add(p, 16)) = a0r - a1r
		*(*float64)(unsafe.Add(p, 24)) = a0i - a1i
		p = unsafe.Add(p, 32)
	}
}

func invFirstFast(dst, src []complex128, size int) {
	if size == 2 && len(src)%4 == 0 && torus.UseAVX2() {
		stage2AVX2(unsafe.SliceData(dst), unsafe.SliceData(src), len(src))
		return
	}
	dp := unsafe.Pointer(unsafe.SliceData(dst))
	sp := unsafe.Pointer(unsafe.SliceData(src))
	if size == 2 {
		for i := 0; i < len(src); i += 2 {
			a0r, a0i := f64(sp, 0), f64(sp, 8)
			a1r, a1i := f64(sp, 16), f64(sp, 24)
			*(*float64)(dp) = a0r + a1r
			*(*float64)(unsafe.Add(dp, 8)) = a0i + a1i
			*(*float64)(unsafe.Add(dp, 16)) = a0r - a1r
			*(*float64)(unsafe.Add(dp, 24)) = a0i - a1i
			sp = unsafe.Add(sp, 32)
			dp = unsafe.Add(dp, 32)
		}
		return
	}
	for i := 0; i < len(src); i += 4 {
		v0r, v0i := f64(sp, 0), f64(sp, 8)
		v1r, v1i := f64(sp, 16), f64(sp, 24)
		v2r, v2i := f64(sp, 32), f64(sp, 40)
		v3r, v3i := f64(sp, 48), f64(sp, 56)
		t0r, t0i := v0r+v2r, v0i+v2i
		t1r, t1i := v0r-v2r, v0i-v2i
		t2r, t2i := v1r+v3r, v1i+v3i
		dr, di := v1r-v3r, v1i-v3i
		t3r, t3i := -di, dr
		*(*float64)(dp) = t0r + t2r
		*(*float64)(unsafe.Add(dp, 8)) = t0i + t2i
		*(*float64)(unsafe.Add(dp, 16)) = t1r - t3r
		*(*float64)(unsafe.Add(dp, 24)) = t1i - t3i
		*(*float64)(unsafe.Add(dp, 32)) = t0r - t2r
		*(*float64)(unsafe.Add(dp, 40)) = t0i - t2i
		*(*float64)(unsafe.Add(dp, 48)) = t1r + t3r
		*(*float64)(unsafe.Add(dp, 56)) = t1i + t3i
		sp = unsafe.Add(sp, 64)
		dp = unsafe.Add(dp, 64)
	}
}

func invStage4Fast(buf []complex128, st stage) {
	s := st.size
	q := s >> 2
	if q >= 2 && torus.UseAVX2() {
		invStage4AVX2(unsafe.SliceData(buf), len(buf), s, unsafe.SliceData(st.lanes))
		return
	}
	qb := uintptr(q) * 16
	bp := unsafe.Pointer(unsafe.SliceData(buf))
	twp := unsafe.Pointer(unsafe.SliceData(st.tw))
	for b := 0; b < len(buf); b += s {
		p0 := unsafe.Add(bp, uintptr(b)*16)
		p1 := unsafe.Add(p0, qb)
		p2 := unsafe.Add(p1, qb)
		p3 := unsafe.Add(p2, qb)
		tp := twp
		for k := 0; k < q; k++ {
			x0r, x0i := f64(p0, 0), f64(p0, 8)
			x1r, x1i := f64(p1, 0), f64(p1, 8)
			x2r, x2i := f64(p2, 0), f64(p2, 8)
			x3r, x3i := f64(p3, 0), f64(p3, 8)
			w1r, w1i := f64(tp, 0), f64(tp, 8)
			w2r, w2i := f64(tp, 16), f64(tp, 24)
			w3r, w3i := f64(tp, 32), f64(tp, 40)
			tp = unsafe.Add(tp, 48)
			v1r, v1i := x1r*w1r-x1i*w1i, x1r*w1i+x1i*w1r
			v2r, v2i := x2r*w2r-x2i*w2i, x2r*w2i+x2i*w2r
			v3r, v3i := x3r*w3r-x3i*w3i, x3r*w3i+x3i*w3r
			t0r, t0i := x0r+v2r, x0i+v2i
			t1r, t1i := x0r-v2r, x0i-v2i
			t2r, t2i := v1r+v3r, v1i+v3i
			dr, di := v1r-v3r, v1i-v3i
			t3r, t3i := -di, dr
			*(*float64)(p0) = t0r + t2r
			*(*float64)(unsafe.Add(p0, 8)) = t0i + t2i
			*(*float64)(p1) = t1r - t3r
			*(*float64)(unsafe.Add(p1, 8)) = t1i - t3i
			*(*float64)(p2) = t0r - t2r
			*(*float64)(unsafe.Add(p2, 8)) = t0i - t2i
			*(*float64)(p3) = t1r + t3r
			*(*float64)(unsafe.Add(p3, 8)) = t1i + t3i
			p0 = unsafe.Add(p0, 16)
			p1 = unsafe.Add(p1, 16)
			p2 = unsafe.Add(p2, 16)
			p3 = unsafe.Add(p3, 16)
		}
	}
}

// foldAccFast applies the untwist factor at byte offsets derived from pos
// and accumulates the rounded components into the two dst halves.
func foldAccFast(dp, up unsafe.Pointer, mb uintptr, pos int, yr, yi float64) {
	u := unsafe.Add(up, uintptr(pos)*16)
	ur, ui := f64(u, 0), f64(u, 8)
	d := unsafe.Add(dp, uintptr(pos)*4)
	*(*torus.Torus32)(d) += roundToTorus(yr*ur - yi*ui)
	*(*torus.Torus32)(unsafe.Add(d, mb)) += roundToTorus(yr*ui + yi*ur)
}

// invFoldFast is invFoldRef; its AVX2 body reads lanes, laneTable(untwist, 1),
// in place of untwist.
func invFoldFast(dst []torus.Torus32, src []complex128, st stage, untwist, lanes []float64, m int) {
	dp := unsafe.Pointer(unsafe.SliceData(dst))
	up := unsafe.Pointer(unsafe.SliceData(untwist))
	sp := unsafe.Pointer(unsafe.SliceData(src))
	mb := uintptr(m) * 4
	if st.size == 2 {
		a0r, a0i := f64(sp, 0), f64(sp, 8)
		a1r, a1i := f64(sp, 16), f64(sp, 24)
		foldAccFast(dp, up, mb, 0, a0r+a1r, a0i+a1i)
		foldAccFast(dp, up, mb, 1, a0r-a1r, a0i-a1i)
		return
	}
	q := st.size >> 2
	if q >= 2 && torus.UseAVX2() {
		// The fold stage spans the transform (st.size == m): the body
		// takes both from q.
		invFoldAVX2(unsafe.SliceData(dst), unsafe.SliceData(src), q, unsafe.SliceData(st.lanes), unsafe.SliceData(lanes))
		return
	}
	qb := uintptr(q) * 16
	p0 := sp
	p1 := unsafe.Add(p0, qb)
	p2 := unsafe.Add(p1, qb)
	p3 := unsafe.Add(p2, qb)
	tp := unsafe.Pointer(unsafe.SliceData(st.tw))
	for k := 0; k < q; k++ {
		x0r, x0i := f64(p0, 0), f64(p0, 8)
		x1r, x1i := f64(p1, 0), f64(p1, 8)
		x2r, x2i := f64(p2, 0), f64(p2, 8)
		x3r, x3i := f64(p3, 0), f64(p3, 8)
		w1r, w1i := f64(tp, 0), f64(tp, 8)
		w2r, w2i := f64(tp, 16), f64(tp, 24)
		w3r, w3i := f64(tp, 32), f64(tp, 40)
		tp = unsafe.Add(tp, 48)
		v1r, v1i := x1r*w1r-x1i*w1i, x1r*w1i+x1i*w1r
		v2r, v2i := x2r*w2r-x2i*w2i, x2r*w2i+x2i*w2r
		v3r, v3i := x3r*w3r-x3i*w3i, x3r*w3i+x3i*w3r
		t0r, t0i := x0r+v2r, x0i+v2i
		t1r, t1i := x0r-v2r, x0i-v2i
		t2r, t2i := v1r+v3r, v1i+v3i
		dr, di := v1r-v3r, v1i-v3i
		t3r, t3i := -di, dr
		foldAccFast(dp, up, mb, k, t0r+t2r, t0i+t2i)
		foldAccFast(dp, up, mb, k+q, t1r-t3r, t1i-t3i)
		foldAccFast(dp, up, mb, k+2*q, t0r-t2r, t0i-t2i)
		foldAccFast(dp, up, mb, k+3*q, t1r+t3r, t1i+t3i)
		p0 = unsafe.Add(p0, 16)
		p1 = unsafe.Add(p1, 16)
		p2 = unsafe.Add(p2, 16)
		p3 = unsafe.Add(p3, 16)
	}
}

// maxTileRows bounds the key rows, (k+1)·lb, and 2·maxTileRows the key
// polynomials, (k+1)·lb·(k+1), of the tile MAC's pointer tables: k = 1 at
// every level count NewDecomposer allows. A larger key takes the reference.
const maxTileRows = 64

// mulAccTileFast walks the tile TileGroup members at a time through
// pointer tables: kp[cols·r+c] is key row r's column c, the slab's
// polynomial at (cols·r+c)·n, dp[TileGroup·r+t] member t's digit r and,
// for the AVX2 body, ap[2t+c] its accumulator c. For two columns (k = 1,
// every parameter set) the AVX2 body takes the even part of each
// polynomial; the Go body takes the rest, or all of it on other hosts and
// shapes.
func mulAccTileFast(accs, digs [][]FourierPoly, key FourierPoly) {
	cols, n := len(accs[0]), len(accs[0][0])
	rows := len(digs[0])
	if rows > maxTileRows || rows*cols > 2*maxTileRows {
		mulAccTileRef(accs, digs, key)
		return
	}
	var kp [2 * maxTileRows]unsafe.Pointer
	kb := unsafe.Pointer(unsafe.SliceData(key))
	for i := range rows * cols {
		kp[i] = unsafe.Add(kb, uintptr(i*n)*16)
	}
	even := 0
	if cols == 2 && torus.UseAVX2() {
		even = n &^ 1
	}
	for lo := 0; lo < len(accs); lo += TileGroup {
		g := min(TileGroup, len(accs)-lo)
		var dp [TileGroup * maxTileRows]unsafe.Pointer
		for t := 0; t < g; t++ {
			for r, d := range digs[lo+t] {
				dp[TileGroup*r+t] = unsafe.Pointer(unsafe.SliceData(d))
			}
		}
		if even > 0 {
			var ap [2 * TileGroup]unsafe.Pointer
			for t := 0; t < g; t++ {
				ap[2*t] = unsafe.Pointer(unsafe.SliceData(accs[lo+t][0]))
				ap[2*t+1] = unsafe.Pointer(unsafe.SliceData(accs[lo+t][1]))
			}
			mulAccTileAVX2(&ap[0], &dp[0], &kp[0], g, rows, even)
		}
		for t := 0; t < g && even < n; t++ {
			for c, out := range accs[lo+t] {
				mulAccTileGo(out, dp[t:], kp[c:], rows, cols, even)
			}
		}
	}
}

// mulAccTileGo computes one accumulator of the tile MAC from coefficient lo
// on, out[i] = Σ_r d_r[i]·w_r[i] with d_r = dp[TileGroup·r] and w_r =
// kp[cols·r], summed in registers from +0 in row order, two coefficients
// per pass over the rows.
func mulAccTileGo(out FourierPoly, dp, kp []unsafe.Pointer, rows, cols, lo int) {
	op := unsafe.Pointer(unsafe.SliceData(out))
	i := lo
	for ; i+2 <= len(out); i += 2 {
		off := uintptr(i) * 16
		var sr0, si0, sr1, si1 float64
		for r := 0; r < rows; r++ {
			a, b := unsafe.Add(dp[TileGroup*r], off), unsafe.Add(kp[cols*r], off)
			ar0, ai0 := f64(a, 0), f64(a, 8)
			br0, bi0 := f64(b, 0), f64(b, 8)
			ar1, ai1 := f64(a, 16), f64(a, 24)
			br1, bi1 := f64(b, 16), f64(b, 24)
			sr0, si0 = sr0+(ar0*br0-ai0*bi0), si0+(ar0*bi0+ai0*br0)
			sr1, si1 = sr1+(ar1*br1-ai1*bi1), si1+(ar1*bi1+ai1*br1)
		}
		p := unsafe.Add(op, off)
		*(*float64)(p) = sr0
		*(*float64)(unsafe.Add(p, 8)) = si0
		*(*float64)(unsafe.Add(p, 16)) = sr1
		*(*float64)(unsafe.Add(p, 24)) = si1
	}
	for ; i < len(out); i++ {
		off := uintptr(i) * 16
		var sr, si float64
		for r := 0; r < rows; r++ {
			a, b := unsafe.Add(dp[TileGroup*r], off), unsafe.Add(kp[cols*r], off)
			ar, ai := f64(a, 0), f64(a, 8)
			br, bi := f64(b, 0), f64(b, 8)
			sr, si = sr+(ar*br-ai*bi), si+(ar*bi+ai*br)
		}
		*(*float64)(unsafe.Add(op, off)) = sr
		*(*float64)(unsafe.Add(op, off+8)) = si
	}
}

// decompLoadFast is the fast fused decompose+twist load, of src itself or
// of src·X^e − src (rotSub, e in [0, 2N)). Digit extraction is branchless —
// rounding folds into a masked add, and the balanced-range borrow becomes
// carry = (d + B/2 - 1) >> baseLog, which is 1 exactly when the digit
// exceeds B/2. The digits are identical to Decomposer.DigitsTo's (pinned by
// test). BaseLog 32 would overflow the branchless carry and falls back to
// the reference.
//
// The rotation costs an index offset and a sign mask, not a pass: with
// k = e mod N, the coefficient decomposed at x is
// (src[(x−k) mod N] ^ neg) − neg − (src[x] & sub), where neg is all ones
// when exactly one of "x−k wrapped below zero" and "e ≥ N" holds, and sub
// is all ones for the rot-sub load and zero for the plain one (k = 0: the
// value is src[x]). Both halves of a folded pair keep their offset and
// sign on either side of j = k mod N/2, so the walk is two straight runs.
// The AVX2 body takes each run four pairs at a time, general in the level
// count; the Go loop below takes the up to three pairs a run has left, or
// the whole run without AVX2, and for the level counts the paper's
// parameter sets use (2 and 3) keeps a pair's digits in registers.
func (p *Processor) decompLoadFast(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool) {
	lb := dec.Level
	bl := uint(dec.BaseLog)
	if bl >= 32 || lb > 32 {
		p.decompLoadRef(dsts, dec, src, e, rotSub)
		return
	}
	m, n := p.m, p.n
	var dp [32]unsafe.Pointer
	for l := 0; l < lb; l++ {
		dp[l] = unsafe.Pointer(unsafe.SliceData(dsts[l]))
	}
	d0, d1, d2 := dp[0], dp[1], dp[2]
	rshift := 32 - bl*uint(lb)
	rmask := ^uint32(0)
	var rhalf uint32
	if rshift > 0 {
		rmask <<= rshift
		rhalf = 1 << (rshift - 1)
	}
	mask := uint32(1)<<bl - 1
	half := uint32(1) << (bl - 1)
	sh1, sh2 := rshift+bl, rshift+2*bl

	var da, db [32]int32 // digits of one pair, for the general level count
	var k int
	var flip, sub uint32
	if rotSub {
		k, sub = e, ^uint32(0)
		if k >= n {
			k, flip = k-n, ^uint32(0)
		}
	}
	sp := unsafe.Pointer(unsafe.SliceData(src.Coeffs))
	tp := unsafe.Pointer(unsafe.SliceData(p.twist))
	for lo, hi := 0, k%m; lo < m; lo, hi = hi, m {
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
		j := lo
		if cnt := (hi - lo) &^ 3; cnt > 0 && torus.UseAVX2() {
			decompLoadAVX2(&dp[0], lb, (*float64)(tp), (*uint32)(sp), oa, ob, m, lo, cnt, na, nb, sub, rhalf, mask, rshift, bl)
			j += cnt
		}
		for ; j < hi; j++ {
			ra := ((u32(sp, j+oa) ^ na) - na - (u32(sp, j) & sub) + rhalf) & rmask
			rb := ((u32(sp, j+ob) ^ nb) - nb - (u32(sp, j+m) & sub) + rhalf) & rmask
			off := uintptr(j) * 16
			tr, ti := f64(tp, off), f64(tp, off+8)
			switch lb {
			case 2:
				a1, ca := digitFast(ra, rshift, bl, mask, half, 0)
				a0, _ := digitFast(ra, sh1, bl, mask, half, ca)
				b1, cb := digitFast(rb, rshift, bl, mask, half, 0)
				b0, _ := digitFast(rb, sh1, bl, mask, half, cb)
				storeTwistedFast(unsafe.Add(d0, off), a0, b0, tr, ti)
				storeTwistedFast(unsafe.Add(d1, off), a1, b1, tr, ti)
			case 3:
				a2, ca := digitFast(ra, rshift, bl, mask, half, 0)
				a1, ca := digitFast(ra, sh1, bl, mask, half, ca)
				a0, _ := digitFast(ra, sh2, bl, mask, half, ca)
				b2, cb := digitFast(rb, rshift, bl, mask, half, 0)
				b1, cb := digitFast(rb, sh1, bl, mask, half, cb)
				b0, _ := digitFast(rb, sh2, bl, mask, half, cb)
				storeTwistedFast(unsafe.Add(d0, off), a0, b0, tr, ti)
				storeTwistedFast(unsafe.Add(d1, off), a1, b1, tr, ti)
				storeTwistedFast(unsafe.Add(d2, off), a2, b2, tr, ti)
			default:
				ca, cb := uint32(0), uint32(0)
				sh := rshift
				for l := lb - 1; l >= 0; l-- {
					da[l], ca = digitFast(ra, sh, bl, mask, half, ca)
					db[l], cb = digitFast(rb, sh, bl, mask, half, cb)
					sh += bl
				}
				for l := 0; l < lb; l++ {
					storeTwistedFast(unsafe.Add(dp[l], off), da[l], db[l], tr, ti)
				}
			}
		}
	}
}

// u32 loads the uint32 at index i of the array at p.
func u32(p unsafe.Pointer, i int) uint32 { return *(*uint32)(unsafe.Add(p, uintptr(i)*4)) }

// digitFast extracts the balanced digit of the rounded value r at bit
// offset sh, given the carry out of the level below it, and returns the
// digit with its own carry.
func digitFast(r uint32, sh, bl uint, mask, half, carry uint32) (int32, uint32) {
	d := (r>>sh)&mask + carry
	carry = (d + half - 1) >> bl
	return int32(d - carry<<bl), carry
}

// storeTwistedFast stores the folded pair (a, b) times the twist factor.
func storeTwistedFast(dp unsafe.Pointer, a, b int32, tr, ti float64) {
	ar, ai := float64(a), float64(b)
	*(*float64)(dp) = ar*tr - ai*ti
	*(*float64)(unsafe.Add(dp, 8)) = ar*ti + ai*tr
}
