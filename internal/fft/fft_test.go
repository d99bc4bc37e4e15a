package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/poly"
	"repro/internal/torus"
)

// fwdTorus, fwdInt and inverse run ForwardTorusTo, ForwardIntTo and
// InverseTo into fresh buffers (the inverse then is not additive).
func fwdTorus(p *Processor, src poly.Poly) FourierPoly {
	dst := p.NewFourierPoly()
	p.ForwardTorusTo(dst, src)
	return dst
}

func fwdInt(p *Processor, src []int32) FourierPoly {
	dst := p.NewFourierPoly()
	p.ForwardIntTo(dst, src)
	return dst
}

func inverse(p *Processor, fp FourierPoly) poly.Poly {
	dst := poly.New(p.N())
	p.InverseTo(dst, fp)
	return dst
}

// naiveEval evaluates the real polynomial with coefficients c at the odd
// 2N-th root ω^(4k+1) directly — the reference the folded transform must
// match.
func naiveEval(c []float64, k int) complex128 {
	n := len(c)
	var acc complex128
	for j, cj := range c {
		ang := math.Pi * float64((4*k+1)*j) / float64(n)
		acc += complex(cj, 0) * cmplx.Exp(complex(0, ang))
	}
	return acc
}

// forwardPermutation recovers, for a given input, the bijection between
// the kernel-order output slots and the naive evaluation indices. The DIF
// kernel emits the folded DFT values in digit-reversed order; the tests
// only require that the order is a fixed bijection consistent between
// forward, pointwise ops and inverse, so the permutation is matched
// empirically against the naive evaluations.
func forwardPermutation(t *testing.T, fp FourierPoly, cf []float64) []int {
	t.Helper()
	m := len(fp)
	perm := make([]int, m)
	used := make([]bool, m)
	for i := 0; i < m; i++ {
		found := -1
		for k := 0; k < m; k++ {
			want := naiveEval(cf, k)
			if cmplx.Abs(fp[i]-want) <= 1e-6*(1+cmplx.Abs(want)) {
				found = k
				break
			}
		}
		if found < 0 {
			t.Fatalf("slot %d: value %v matches no naive evaluation", i, fp[i])
		}
		if used[found] {
			t.Fatalf("slot %d: naive evaluation %d matched twice", i, found)
		}
		used[found] = true
		perm[i] = found
	}
	return perm
}

func TestForwardMatchesNaiveEvaluation(t *testing.T) {
	// The kernel-order outputs must be exactly the m naive evaluations at
	// the odd 2N-th roots, each appearing once (a bijection), and the
	// permutation must not depend on the input values.
	n := 16
	p := NewProcessor(n)
	rng := rand.New(rand.NewSource(1))
	var perm []int
	for trial := 0; trial < 3; trial++ {
		src := make([]int32, n)
		cf := make([]float64, n)
		for i := range src {
			src[i] = int32(rng.Intn(2000) - 1000)
			cf[i] = float64(src[i])
		}
		fp := fwdInt(p, src)
		got := forwardPermutation(t, fp, cf)
		if perm == nil {
			perm = got
			continue
		}
		for i := range perm {
			if perm[i] != got[i] {
				t.Fatalf("output permutation depends on input: slot %d mapped to %d then %d", i, perm[i], got[i])
			}
		}
	}
}

func TestForwardInverseRoundtripInt(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 1024} {
		p := NewProcessor(n)
		rng := rand.New(rand.NewSource(2))
		src := make([]int32, n)
		for i := range src {
			src[i] = int32(rng.Intn(1<<20) - 1<<19)
		}
		got := inverse(p, fwdInt(p, src))
		for i := range src {
			if int32(got.Coeffs[i]) != src[i] {
				t.Fatalf("n=%d coeff %d: got %d want %d", n, i, int32(got.Coeffs[i]), src[i])
			}
		}
	}
}

func TestForwardInverseRoundtripTorus(t *testing.T) {
	n := 256
	p := NewProcessor(n)
	rng := rand.New(rand.NewSource(3))
	src := poly.New(n)
	poly.Uniform(rng, src)
	got := inverse(p, fwdTorus(p, src))
	// Full 32-bit magnitudes: allow tiny rounding noise (a few ulps).
	for i := range src.Coeffs {
		d := int32(got.Coeffs[i] - src.Coeffs[i])
		if d > 4 || d < -4 {
			t.Fatalf("coeff %d: drift %d too large", i, d)
		}
	}
}

func TestNegacyclicProductMatchesNaive(t *testing.T) {
	// The headline property: folded-FFT pointwise product == schoolbook
	// negacyclic product, exactly, for gadget-digit-sized operands.
	for _, n := range []int{16, 128, 1024} {
		p := NewProcessor(n)
		rng := rand.New(rand.NewSource(4))
		a := poly.New(n)
		poly.Uniform(rng, a)
		digits := make([]int32, n)
		for i := range digits {
			digits[i] = int32(rng.Intn(1024) - 512) // B=2^10 digit range
		}
		want := poly.MulNaive(a, digits)

		fa := fwdTorus(p, a)
		fd := fwdInt(p, digits)
		prod := p.NewFourierPoly()
		MulAcc(prod, fa, fd)
		got := inverse(p, prod)

		// With N=1024 the products reach ~2^51; allow a few ulps of
		// rounding drift, which becomes (tiny) extra noise in TFHE.
		tol := 64.0 / 4294967296.0
		if d := poly.MaxDistance(got, want); d > tol {
			t.Fatalf("n=%d: product drift %v exceeds tolerance %v", n, d, tol)
		}
		if n <= 128 {
			// Small N: products fit in exact double range, must be exact.
			if !got.Equal(want) {
				t.Fatalf("n=%d: expected exact product", n)
			}
		}
	}
}

// TestExternalProductExactAtRealDegrees pins the float FFT's exactness
// where the parameter sets run it: one external-product output polynomial
// sums (k+1)·lb products of a uniform torus polynomial and a polynomial of
// balanced gadget digits, 6 at set III (N = 2048, Bg = 2⁸, lb = 3) and 4
// at set IV (N = 16384, Bg = 2¹⁰, lb = 2), accumulated through MulAcc in
// the Fourier domain and inverted once. The result equals the schoolbook
// sum bit for bit: no rounding drift reaches the torus.
func TestExternalProductExactAtRealDegrees(t *testing.T) {
	for _, tc := range []struct{ n, logBg, rows int }{
		{2048, 8, 6},
		{16384, 10, 4},
	} {
		if raceEnabled && tc.n > 2048 {
			continue // one goroutine: the detector adds nothing but 25× to the schoolbook product
		}
		p := NewProcessor(tc.n)
		rng := rand.New(rand.NewSource(int64(tc.n)))
		half := 1 << (tc.logBg - 1)
		want := poly.New(tc.n)
		acc := p.NewFourierPoly()
		a := poly.New(tc.n)
		digits := make([]int32, tc.n)
		for range tc.rows {
			poly.Uniform(rng, a)
			for i := range digits {
				digits[i] = int32(rng.Intn(2*half) - half) // balanced: [-Bg/2, Bg/2)
			}
			poly.AddTo(want, poly.MulNaive(a, digits))
			MulAcc(acc, fwdTorus(p, a), fwdInt(p, digits))
		}
		if got := inverse(p, acc); !got.Equal(want) {
			t.Errorf("N=%d Bg=2^%d: %d-row external product drifts %v from the schoolbook sum", tc.n, tc.logBg, tc.rows, poly.MaxDistance(got, want))
		}
	}
}

func TestNegacyclicWraparoundSign(t *testing.T) {
	// X^(N-1) * X = X^N = -1: verify the negacyclic sign comes out of the
	// Fourier path.
	n := 16
	p := NewProcessor(n)
	a := poly.New(n)
	a.Coeffs[n-1] = torus.FromFloat(0.25) // 0.25·X^15
	digits := make([]int32, n)
	digits[1] = 1 // X
	prod := p.NewFourierPoly()
	MulAcc(prod, fwdTorus(p, a), fwdInt(p, digits))
	got := inverse(p, prod)
	want := poly.New(n)
	want.Coeffs[0] = -torus.FromFloat(0.25)
	if !got.Equal(want) {
		t.Fatalf("negacyclic sign wrong: got %v", got.Coeffs[:2])
	}
}

func TestMulAccAccumulates(t *testing.T) {
	n := 32
	p := NewProcessor(n)
	rng := rand.New(rand.NewSource(5))
	a := poly.New(n)
	b := poly.New(n)
	poly.Uniform(rng, a)
	poly.Uniform(rng, b)
	d1 := make([]int32, n)
	d2 := make([]int32, n)
	for i := range d1 {
		d1[i] = int32(rng.Intn(64) - 32)
		d2[i] = int32(rng.Intn(64) - 32)
	}
	want := poly.Add(poly.MulNaive(a, d1), poly.MulNaive(b, d2))

	acc := p.NewFourierPoly()
	MulAcc(acc, fwdTorus(p, a), fwdInt(p, d1))
	MulAcc(acc, fwdTorus(p, b), fwdInt(p, d2))
	got := inverse(p, acc)
	if !got.Equal(want) {
		t.Fatalf("MulAcc accumulation mismatch: %v", poly.MaxDistance(got, want))
	}
}

func TestInverseToIsAdditive(t *testing.T) {
	n := 16
	p := NewProcessor(n)
	src := make([]int32, n)
	src[3] = 7
	fp := fwdInt(p, src)
	dst := poly.New(n)
	// The same Fourier accumulator is inverse-transformed twice: InverseTo
	// must both add into dst and leave fp intact across calls.
	p.InverseTo(dst, fp)
	p.InverseTo(dst, fp)
	if int32(dst.Coeffs[3]) != 14 {
		t.Fatalf("additive inverse: got %d want 14", int32(dst.Coeffs[3]))
	}
}

func TestTransformLinearity(t *testing.T) {
	n := 64
	p := NewProcessor(n)
	rng := rand.New(rand.NewSource(6))
	a := make([]int32, n)
	b := make([]int32, n)
	sum := make([]int32, n)
	for i := range a {
		a[i] = int32(rng.Intn(1000) - 500)
		b[i] = int32(rng.Intn(1000) - 500)
		sum[i] = a[i] + b[i]
	}
	fa := fwdInt(p, a)
	fb := fwdInt(p, b)
	fs := fwdInt(p, sum)
	for i := range fa {
		if cmplx.Abs(fa[i]+fb[i]-fs[i]) > 1e-6*(1+cmplx.Abs(fs[i])) {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestNewProcessorValidation(t *testing.T) {
	for _, bad := range []int{0, 2, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for n=%d", bad)
				}
			}()
			NewProcessor(bad)
		}()
	}
}

// TestNewFourierPolyBatch checks the contiguous slab layout: every
// FourierPoly has length M, capacity clipped at M, and writes to one
// never alias a neighbour.
func TestNewFourierPolyBatch(t *testing.T) {
	p := NewProcessor(32)
	batch := p.NewFourierPolyBatch(3)
	if len(batch) != 3 {
		t.Fatalf("batch length %d, want 3", len(batch))
	}
	for i, fp := range batch {
		if len(fp) != p.M() || cap(fp) != p.M() {
			t.Fatalf("poly %d: len=%d cap=%d, want %d/%d", i, len(fp), cap(fp), p.M(), p.M())
		}
	}
	batch[1][0] = complex(1, 2)
	if batch[0][p.M()-1] != 0 || batch[2][0] != 0 {
		t.Fatal("write to one batch poly leaked into a neighbour")
	}
}

func TestClear(t *testing.T) {
	p := NewProcessor(8)
	fp := p.NewFourierPoly()
	fp[0] = 1 + 2i
	Clear(fp)
	if fp[0] != 0 {
		t.Error("Clear failed")
	}
}

func BenchmarkForwardTorus1024(b *testing.B) {
	p := NewProcessor(1024)
	rng := rand.New(rand.NewSource(7))
	src := poly.New(1024)
	poly.Uniform(rng, src)
	dst := p.NewFourierPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardTorusTo(dst, src)
	}
}

func BenchmarkNegacyclicProduct1024(b *testing.B) {
	p := NewProcessor(1024)
	rng := rand.New(rand.NewSource(8))
	a := poly.New(1024)
	poly.Uniform(rng, a)
	digits := make([]int32, 1024)
	for i := range digits {
		digits[i] = int32(rng.Intn(1024) - 512)
	}
	fa := fwdTorus(p, a)
	fd := p.NewFourierPoly()
	prod := p.NewFourierPoly()
	dst := poly.New(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardIntTo(fd, digits)
		Clear(prod)
		MulAcc(prod, fa, fd)
		p.InverseTo(dst, prod)
	}
}
