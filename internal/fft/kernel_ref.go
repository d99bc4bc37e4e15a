package fft

import (
	"repro/internal/poly"
	"repro/internal/torus"
)

// Reference kernels: plain bounds-checked Go implementations of the
// butterfly stages and the fused load/fold passes. These are the bitwise
// ground truth the fast kernels are checked against, so every floating-
// point expression here is written with explicit re/im float64 arithmetic
// in exactly the shape the fast kernels use — complex multiplies as
// (ar*br-ai*bi, ar*bi+ai*br), i-multiplies as (-di, dr) — and any change
// to an expression shape must be mirrored in kernel_fast.go.

// loadTorusRef performs the fused fold+twist forward load: the two real
// halves of src become one complex point per index, multiplied by the
// twist factor e^(iπj/N). Torus values are loaded as signed int32 so the
// doubles carry centered representatives.
func loadTorusRef(dst FourierPoly, src []torus.Torus32, twist []float64) {
	m := len(dst)
	for j := 0; j < m; j++ {
		ar := float64(int32(src[j]))
		ai := float64(int32(src[j+m]))
		tr, ti := twist[2*j], twist[2*j+1]
		dst[j] = complex(ar*tr-ai*ti, ar*ti+ai*tr)
	}
}

// loadIntRef is loadTorusRef for small-integer polynomials.
func loadIntRef(dst FourierPoly, src []int32, twist []float64) {
	m := len(dst)
	for j := 0; j < m; j++ {
		ar := float64(src[j])
		ai := float64(src[j+m])
		tr, ti := twist[2*j], twist[2*j+1]
		dst[j] = complex(ar*tr-ai*ti, ar*ti+ai*tr)
	}
}

// decompLoadRef is the reference fused decompose+twist load: per folded
// coefficient pair, extract all digits via Decomposer.DigitsTo into stack
// scratch and write each level with the twist applied. The value
// decomposed is src's coefficient, or that of src·X^e − src when rotSub is
// set. NewDecomposer caps Level at 32, so the scratch stays on the stack;
// a hand-built larger decomposer falls back to the heap.
func (p *Processor) decompLoadRef(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool) {
	lb := dec.Level
	var stackA, stackB [32]int32
	da, db := stackA[:], stackB[:]
	if lb > len(da) {
		da, db = make([]int32, lb), make([]int32, lb)
	}
	da, db = da[:lb], db[:lb]
	m := p.m
	for j := 0; j < m; j++ {
		a, b := src.Coeffs[j], src.Coeffs[j+m]
		if rotSub {
			a, b = rotSubRef(src.Coeffs, j, e), rotSubRef(src.Coeffs, j+m, e)
		}
		dec.DigitsTo(da, a)
		dec.DigitsTo(db, b)
		tr, ti := p.twist[2*j], p.twist[2*j+1]
		for l := 0; l < lb; l++ {
			ar, ai := float64(da[l]), float64(db[l])
			dsts[l][j] = complex(ar*tr-ai*ti, ar*ti+ai*tr)
		}
	}
}

// rotSubRef returns coefficient x of src·X^e − src for e in [0, 2N): the
// coefficient that lands at x started at x−e, and every wrap past a
// multiple of N on the way negates it.
func rotSubRef(src []torus.Torus32, x, e int) torus.Torus32 {
	n := len(src)
	switch i := x - e; {
	case i >= 0:
		return src[i] - src[x]
	case i >= -n:
		return -src[i+n] - src[x]
	default:
		return src[i+2*n] - src[x]
	}
}

// fwdStage4Ref runs one in-place radix-4 DIF pass with block size s over
// buf, walking the packed twiddle table sequentially (six floats per
// butterfly index, shared across blocks).
func fwdStage4Ref(buf []complex128, s int, tw []float64) {
	q := s >> 2
	for b := 0; b < len(buf); b += s {
		ti := 0
		for k := 0; k < q; k++ {
			a0 := buf[b+k]
			a1 := buf[b+k+q]
			a2 := buf[b+k+2*q]
			a3 := buf[b+k+3*q]
			t0r, t0i := real(a0)+real(a2), imag(a0)+imag(a2)
			t1r, t1i := real(a0)-real(a2), imag(a0)-imag(a2)
			t2r, t2i := real(a1)+real(a3), imag(a1)+imag(a3)
			dr, di := real(a1)-real(a3), imag(a1)-imag(a3)
			t3r, t3i := -di, dr
			w1r, w1i := tw[ti], tw[ti+1]
			w2r, w2i := tw[ti+2], tw[ti+3]
			w3r, w3i := tw[ti+4], tw[ti+5]
			ti += 6
			b1r, b1i := t1r+t3r, t1i+t3i
			b2r, b2i := t0r-t2r, t0i-t2i
			b3r, b3i := t1r-t3r, t1i-t3i
			buf[b+k] = complex(t0r+t2r, t0i+t2i)
			buf[b+k+q] = complex(b1r*w1r-b1i*w1i, b1r*w1i+b1i*w1r)
			buf[b+k+2*q] = complex(b2r*w2r-b2i*w2i, b2r*w2i+b2i*w2r)
			buf[b+k+3*q] = complex(b3r*w3r-b3i*w3i, b3r*w3i+b3i*w3r)
		}
	}
}

// fwdStage2Ref runs the trailing radix-2 DIF pass (block size 2, twiddle
// 1) that finishes transforms whose size is an odd power of two.
func fwdStage2Ref(buf []complex128) {
	for i := 0; i < len(buf); i += 2 {
		a0, a1 := buf[i], buf[i+1]
		buf[i] = complex(real(a0)+real(a1), imag(a0)+imag(a1))
		buf[i+1] = complex(real(a0)-real(a1), imag(a0)-imag(a1))
	}
}

// invFirstRef runs the first inverse DIT stage out-of-place: it reads src
// and writes dst, leaving src untouched (this is what makes InverseTo
// non-destructive). The first stage has block size 2 or 4, where every
// twiddle is exactly 1, so no twiddle table is needed.
func invFirstRef(dst, src []complex128, size int) {
	if size == 2 {
		for i := 0; i < len(src); i += 2 {
			a0, a1 := src[i], src[i+1]
			dst[i] = complex(real(a0)+real(a1), imag(a0)+imag(a1))
			dst[i+1] = complex(real(a0)-real(a1), imag(a0)-imag(a1))
		}
		return
	}
	for i := 0; i < len(src); i += 4 {
		v0, v1, v2, v3 := src[i], src[i+1], src[i+2], src[i+3]
		t0r, t0i := real(v0)+real(v2), imag(v0)+imag(v2)
		t1r, t1i := real(v0)-real(v2), imag(v0)-imag(v2)
		t2r, t2i := real(v1)+real(v3), imag(v1)+imag(v3)
		dr, di := real(v1)-real(v3), imag(v1)-imag(v3)
		t3r, t3i := -di, dr
		dst[i] = complex(t0r+t2r, t0i+t2i)
		dst[i+1] = complex(t1r-t3r, t1i-t3i)
		dst[i+2] = complex(t0r-t2r, t0i-t2i)
		dst[i+3] = complex(t1r+t3r, t1i+t3i)
	}
}

// invStage4Ref runs one in-place radix-4 DIT pass with block size s,
// using the conjugate twiddle table built for the inverse direction.
func invStage4Ref(buf []complex128, s int, tw []float64) {
	q := s >> 2
	for b := 0; b < len(buf); b += s {
		ti := 0
		for k := 0; k < q; k++ {
			x0 := buf[b+k]
			x1 := buf[b+k+q]
			x2 := buf[b+k+2*q]
			x3 := buf[b+k+3*q]
			w1r, w1i := tw[ti], tw[ti+1]
			w2r, w2i := tw[ti+2], tw[ti+3]
			w3r, w3i := tw[ti+4], tw[ti+5]
			ti += 6
			v1r, v1i := real(x1)*w1r-imag(x1)*w1i, real(x1)*w1i+imag(x1)*w1r
			v2r, v2i := real(x2)*w2r-imag(x2)*w2i, real(x2)*w2i+imag(x2)*w2r
			v3r, v3i := real(x3)*w3r-imag(x3)*w3i, real(x3)*w3i+imag(x3)*w3r
			t0r, t0i := real(x0)+v2r, imag(x0)+v2i
			t1r, t1i := real(x0)-v2r, imag(x0)-v2i
			t2r, t2i := v1r+v3r, v1i+v3i
			dr, di := v1r-v3r, v1i-v3i
			t3r, t3i := -di, dr
			buf[b+k] = complex(t0r+t2r, t0i+t2i)
			buf[b+k+q] = complex(t1r-t3r, t1i-t3i)
			buf[b+k+2*q] = complex(t0r-t2r, t0i-t2i)
			buf[b+k+3*q] = complex(t1r+t3r, t1i+t3i)
		}
	}
}

// invFoldRef runs the final inverse DIT stage (one block spanning the
// whole transform) fused with the fold: each butterfly output y at
// position pos is multiplied by untwist[pos] = conj(twist[pos])/m, its
// components rounded to the torus, and the results ADDED into
// dst[pos], dst[pos+m]. src is read-only; in the single-stage case
// (m ≤ 4) src is the caller's FourierPoly itself.
func invFoldRef(dst []torus.Torus32, src []complex128, st stage, untwist []float64, m int) {
	if st.size == 2 {
		// m == 2: one radix-2 butterfly is the whole transform.
		a0, a1 := src[0], src[1]
		foldAccRef(dst, 0, real(a0)+real(a1), imag(a0)+imag(a1), untwist, m)
		foldAccRef(dst, 1, real(a0)-real(a1), imag(a0)-imag(a1), untwist, m)
		return
	}
	q := st.size >> 2
	tw := st.tw
	ti := 0
	for k := 0; k < q; k++ {
		x0 := src[k]
		x1 := src[k+q]
		x2 := src[k+2*q]
		x3 := src[k+3*q]
		w1r, w1i := tw[ti], tw[ti+1]
		w2r, w2i := tw[ti+2], tw[ti+3]
		w3r, w3i := tw[ti+4], tw[ti+5]
		ti += 6
		v1r, v1i := real(x1)*w1r-imag(x1)*w1i, real(x1)*w1i+imag(x1)*w1r
		v2r, v2i := real(x2)*w2r-imag(x2)*w2i, real(x2)*w2i+imag(x2)*w2r
		v3r, v3i := real(x3)*w3r-imag(x3)*w3i, real(x3)*w3i+imag(x3)*w3r
		t0r, t0i := real(x0)+v2r, imag(x0)+v2i
		t1r, t1i := real(x0)-v2r, imag(x0)-v2i
		t2r, t2i := v1r+v3r, v1i+v3i
		dr, di := v1r-v3r, v1i-v3i
		t3r, t3i := -di, dr
		foldAccRef(dst, k, t0r+t2r, t0i+t2i, untwist, m)
		foldAccRef(dst, k+q, t1r-t3r, t1i-t3i, untwist, m)
		foldAccRef(dst, k+2*q, t0r-t2r, t0i-t2i, untwist, m)
		foldAccRef(dst, k+3*q, t1r+t3r, t1i+t3i, untwist, m)
	}
}

// foldAccRef applies the untwist factor to one complex output, rounds
// both components to the torus and adds them into the two real halves.
func foldAccRef(dst []torus.Torus32, pos int, yr, yi float64, untwist []float64, m int) {
	ur, ui := untwist[2*pos], untwist[2*pos+1]
	dst[pos] += roundToTorus(yr*ur - yi*ui)
	dst[pos+m] += roundToTorus(yr*ui + yi*ur)
}

// mulAccRef accumulates the pointwise complex product: acc += a ⊙ b.
func mulAccRef(acc, a, b FourierPoly) {
	for i := range acc {
		ar, ai := real(a[i]), imag(a[i])
		br, bi := real(b[i]), imag(b[i])
		cr, ci := real(acc[i]), imag(acc[i])
		acc[i] = complex(cr+(ar*br-ai*bi), ci+(ar*bi+ai*br))
	}
}

// mulAccTileRef is the specification of the tile MAC: per member and
// column, Clear, then mulAccRef row by row, against the key slab's
// polynomial at (r·cols + c)·n.
func mulAccTileRef(accs, digs [][]FourierPoly, key FourierPoly) {
	cols, n := len(accs[0]), len(accs[0][0])
	for t, acc := range accs {
		for c, out := range acc {
			Clear(out)
			for r, d := range digs[t] {
				off := (r*cols + c) * n
				mulAccRef(out, d, key[off:off+n])
			}
		}
	}
}
