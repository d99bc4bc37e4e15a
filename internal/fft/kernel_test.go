package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/poly"
	"repro/internal/torus"
)

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestInverseToPreservesInput(t *testing.T) {
	// Regression for the InverseTo input-clobbering hazard: the transform
	// must run in processor scratch, leaving the caller's Fourier
	// accumulator bit-for-bit intact — including the single-stage sizes
	// (n=4, n=8) where the fold reads the input directly.
	for _, n := range []int{4, 8, 64, 256} {
		p := NewProcessor(n)
		rng := rand.New(rand.NewSource(11))
		src := make([]int32, n)
		for i := range src {
			src[i] = int32(rng.Intn(1<<16) - 1<<15)
		}
		fp := fwdInt(p, src)
		want := slices.Clone(fp)
		dst := poly.New(n)
		p.InverseTo(dst, fp)
		for i := range fp {
			if fp[i] != want[i] {
				t.Fatalf("n=%d: InverseTo modified its input at %d: %v -> %v", n, i, want[i], fp[i])
			}
		}
		// The preserved accumulator must still be usable: a second inverse
		// adds the same polynomial again.
		dst2 := poly.New(n)
		p.InverseTo(dst2, fp)
		p.InverseTo(dst2, fp)
		for i := range dst.Coeffs {
			if dst2.Coeffs[i] != 2*dst.Coeffs[i] {
				t.Fatalf("n=%d: reused accumulator drifted at coeff %d", n, i)
			}
		}
	}
}

func TestMulSizeMismatchPanics(t *testing.T) {
	p := NewProcessor(16)
	good := p.NewFourierPoly()
	short := make(FourierPoly, p.M()-1)
	long := make(FourierPoly, p.M()+1)
	// Both directions: an undersized operand must not silently truncate
	// the loop, and an oversized one must not silently drop its tail.
	expectPanic(t, "MulAcc acc short", func() { MulAcc(short, good, good) })
	expectPanic(t, "MulAcc a short", func() { MulAcc(good, short, good) })
	expectPanic(t, "MulAcc b short", func() { MulAcc(good, good, short) })
	expectPanic(t, "MulAcc acc long", func() { MulAcc(long, good, good) })
	expectPanic(t, "MulAcc a long", func() { MulAcc(good, long, good) })
	expectPanic(t, "MulAcc b long", func() { MulAcc(good, good, long) })
}

func TestRoundToTorusBoundaries(t *testing.T) {
	cases := []struct {
		in   float64
		want torus.Torus32
	}{
		{0, 0},
		{0.49, 0},
		{0.5, 1},                   // math.Round: halves away from zero
		{-0.5, 0xFFFFFFFF},         // -1 on the torus
		{2147483647, 0x7FFFFFFF},   // 2^31 - 1
		{2147483647.5, 0x80000000}, // rounds up to exactly 2^31
		{2147483648, 0x80000000},   // +2^31 and -2^31 are the same torus point
		{-2147483648, 0x80000000},
		{-2147483648.5, 0x7FFFFFFF}, // rounds away to -2^31-1 ≡ 2^31-1
		{4294967296, 0},             // full wrap
		{4294967297, 1},
		{-4294967295, 1},
		{1152921504606846976, 0}, // 2^60, exactly representable, exact mod
		{1152921513196781568, 0}, // 2^60 + 2^33, still exact in float64
	}
	for _, c := range cases {
		if got := roundToTorus(c.in); got != c.want {
			t.Errorf("roundToTorus(%v) = %#x, want %#x", c.in, got, c.want)
		}
	}

	// roundToTorus spells the rounding without math.Round; math.Round
	// stays the definition. Ties, their float64 neighbours, and random
	// values of every binade the kernels can produce must agree with it.
	viaMathRound := func(x float64) torus.Torus32 { return torus.Torus32(int64(math.Round(x))) }
	check := func(x float64) {
		if got, want := roundToTorus(x), viaMathRound(x); got != want {
			t.Fatalf("roundToTorus(%v) = %#x, math.Round gives %#x", x, got, want)
		}
	}
	ties := []float64{0.5, 1.5, 2.5, 0.49999999999999994, 1<<52 - 1, 1<<52 + 1, 1<<53 - 1, 4503599627370495.5}
	for _, x := range ties {
		for _, y := range []float64{x, -x} {
			check(y)
			check(math.Nextafter(y, math.Inf(1)))
			check(math.Nextafter(y, math.Inf(-1)))
		}
	}
	rng := rand.New(rand.NewSource(43))
	for exp := -2; exp < 61; exp++ {
		for i := 0; i < 1_000_000; i++ {
			// A uniform mantissa in [1, 2) scaled into the binade, either sign.
			bits := rng.Uint64()
			x := math.Ldexp(1+float64(bits>>12)/(1<<52), exp)
			if bits&1 == 1 {
				x = -x
			}
			check(x)
		}
	}
}

func TestRoundToTorusDoublePrecisionCliff(t *testing.T) {
	// Integers are exactly representable in float64 only up to 2^53. The
	// old kernel comment claimed safety "up to ~2^63"; in truth any input
	// above 2^53 has already lost low bits before roundToTorus sees it.
	// Pin both sides of the cliff.
	const maxExact = 1 << 53 // 9007199254740992
	if got, want := roundToTorus(float64(maxExact-1)), torus.Torus32(0xFFFFFFFF); got != want {
		t.Errorf("roundToTorus(2^53-1) = %#x, want %#x", got, want)
	}
	// 2^53+1 is not representable: it rounds to 2^53 at conversion, so two
	// distinct integers collapse to the same torus value.
	if float64(maxExact+1) != float64(maxExact) {
		t.Fatal("expected 2^53+1 to collapse to 2^53 in float64")
	}
	if roundToTorus(float64(maxExact+1)) != roundToTorus(float64(maxExact)) {
		t.Error("values beyond the 2^53 cliff should be indistinguishable")
	}
	// The hot path keeps magnitudes well under the cliff: N=1024 products
	// of 32-bit torus values against 2^10 digits stay below ~2^52.
	if maxHot := 1024.0 * 512 * 2147483648; maxHot >= float64(maxExact) {
		t.Errorf("hot-path bound %v exceeds exact range %v", maxHot, float64(maxExact))
	}
}

func TestForwardDecomposeMatchesUnfused(t *testing.T) {
	// The fused decompose+load must be bitwise identical to the
	// DecomposePolyTo -> ForwardIntTo per level sequence it replaces.
	for _, n := range []int{16, 256, 1024} {
		p := NewProcessor(n)
		dec := poly.NewDecomposer(8, 3)
		rng := rand.New(rand.NewSource(13))
		src := poly.New(n)
		poly.Uniform(rng, src)

		fused := p.NewFourierPolyBatch(dec.Level)
		p.ForwardDecompose(fused, dec, src)

		unfused := p.NewFourierPolyBatch(dec.Level)
		for l, digits := range dec.DecomposePoly(src) {
			p.ForwardIntTo(unfused[l], digits)
		}

		for l := range fused {
			for j := range fused[l] {
				if fused[l][j] != unfused[l][j] {
					t.Fatalf("n=%d level %d slot %d: fused %v != unfused %v", n, l, j, fused[l][j], unfused[l][j])
				}
			}
		}
	}
}

func TestForwardDecomposeRotSubMatchesThreePasses(t *testing.T) {
	// The fused rotate-subtract-decompose load must be bitwise identical to
	// MulByMonomialTo -> SubTo -> ForwardDecompose: every e in [0, 2N) at
	// the small sizes (each wrap and sign case, e = 0 and e = N included),
	// random e (negative and beyond 2N too) at the paper's sizes, for the
	// register-held level counts 2 and 3, the general loop, and a gadget
	// that uses all 32 bits.
	decs := []poly.Decomposer{poly.NewDecomposer(10, 2), poly.NewDecomposer(8, 3), poly.NewDecomposer(5, 4), poly.NewDecomposer(7, 1), poly.NewDecomposer(16, 2)}
	kernels := []bool{false}
	if FastKernelAvailable() {
		kernels = append(kernels, true)
	}
	for _, n := range []int{16, 64, 1024, 2048} {
		p := NewProcessor(n)
		rng := rand.New(rand.NewSource(int64(n)))
		src, rot := poly.New(n), poly.New(n)
		poly.Uniform(rng, src)
		es := make([]int, 0, 2*n)
		if n <= 64 {
			for e := 0; e < 2*n; e++ {
				es = append(es, e)
			}
		} else {
			es = append(es, 0, n, n/2, 3*n/2, 2*n-1, -1, -n, 5*n+3)
			for len(es) < 40 {
				es = append(es, rng.Intn(2*n))
			}
		}
		for _, dec := range decs {
			fused := p.NewFourierPolyBatch(dec.Level)
			want := p.NewFourierPolyBatch(dec.Level)
			for _, fast := range kernels {
				withKernel(fast, func() {
					for _, e := range es {
						poly.MulByMonomialTo(rot, src, e)
						poly.SubTo(rot, src)
						p.ForwardDecompose(want, dec, rot)
						p.ForwardDecomposeRotSub(fused, dec, src, e)
						for l := range fused {
							for j := range fused[l] {
								if fused[l][j] != want[l][j] {
									t.Fatalf("n=%d gadget %v fast=%v e=%d level %d slot %d: fused %v != three-pass %v", n, dec, fast, e, l, j, fused[l][j], want[l][j])
								}
							}
						}
					}
				})
			}
		}
	}
}

func TestForwardDecomposeValidation(t *testing.T) {
	p := NewProcessor(16)
	dec := poly.NewDecomposer(8, 3)
	src := poly.New(16)
	expectPanic(t, "level mismatch", func() {
		p.ForwardDecompose(p.NewFourierPolyBatch(2), dec, src)
	})
	expectPanic(t, "poly size mismatch", func() {
		p.ForwardDecompose(p.NewFourierPolyBatch(3), dec, poly.New(32))
	})
	expectPanic(t, "buffer size mismatch", func() {
		bad := []FourierPoly{make(FourierPoly, 4), make(FourierPoly, 4), make(FourierPoly, 4)}
		p.ForwardDecompose(bad, dec, src)
	})
}

// withKernel runs f with the AVX2 bodies on (where the host has them) or
// off, and restores the previous setting.
func withKernel(fast bool, f func()) {
	prev := SetFastKernel(fast)
	defer SetFastKernel(prev)
	f()
}

func TestFastMatchesReferenceBitwise(t *testing.T) {
	bothBodies(t, testFastMatchesReferenceBitwise)
}

func testFastMatchesReferenceBitwise(t *testing.T) {
	// Every transform size from 4 to set IV's 16384: every stage size the
	// kernels see, both tails and heads (q = 2 and q = 1), and the sizes
	// below the AVX2 path's M ≥ 16, N = 2048 being the only paper set whose
	// radix-4 ladder ends in a q = 1 stage. The "fast" side runs the
	// kernels as the caller left them, the other with the AVX2 bodies off.
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384} {
		p := NewProcessor(n)
		rng := rand.New(rand.NewSource(17))
		src := poly.New(n)
		poly.Uniform(rng, src)
		digits := make([]int32, n)
		for i := range digits {
			digits[i] = int32(rng.Intn(1024) - 512)
		}
		dec := poly.NewDecomposer(4, 2)

		fTorus := fwdTorus(p, src)
		fInt := fwdInt(p, digits)
		fAcc := p.NewFourierPoly()
		MulAcc(fAcc, fTorus, fInt)
		MulAcc(fAcc, fInt, fInt)
		fInv := poly.New(n)
		p.InverseTo(fInv, fAcc)
		fDec := p.NewFourierPolyBatch(dec.Level)
		p.ForwardDecompose(fDec, dec, src)

		var rTorus, rInt, rAcc FourierPoly
		var rDec []FourierPoly
		rInv := poly.New(n)
		withKernel(false, func() {
			rTorus = fwdTorus(p, src)
			rInt = fwdInt(p, digits)
			rAcc = p.NewFourierPoly()
			MulAcc(rAcc, rTorus, rInt)
			MulAcc(rAcc, rInt, rInt)
			p.InverseTo(rInv, rAcc)
			rDec = p.NewFourierPolyBatch(dec.Level)
			p.ForwardDecompose(rDec, dec, src)
		})

		cmpFP := func(name string, a, b FourierPoly) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d %s slot %d: fast %v != ref %v", n, name, i, a[i], b[i])
				}
			}
		}
		cmpFP("ForwardTorus", fTorus, rTorus)
		cmpFP("ForwardInt", fInt, rInt)
		cmpFP("MulAcc", fAcc, rAcc)
		for l := range fDec {
			cmpFP("ForwardDecompose", fDec[l], rDec[l])
		}
		for i := range fInv.Coeffs {
			if fInv.Coeffs[i] != rInv.Coeffs[i] {
				t.Fatalf("n=%d InverseTo coeff %d: fast %#x != ref %#x", n, i, fInv.Coeffs[i], rInv.Coeffs[i])
			}
		}
	}
}

// kernelOperands fills buf with what the transforms can hand a butterfly or
// the VMA: both zeros, magnitudes from below 1 up to 2^52, mixed signs.
func kernelOperands(rng *rand.Rand, buf []complex128) {
	part := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		x := math.Ldexp(rng.Float64(), rng.Intn(54)-1)
		if rng.Intn(2) == 0 {
			x = -x
		}
		return x
	}
	for i := range buf {
		buf[i] = complex(part(), part())
	}
}

// sameBits reports the first index at which a and b differ as bit
// patterns (so a zero of the other sign is a difference), or -1.
func sameBits(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) || math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

func TestPlanarTablesReorderNatural(t *testing.T) {
	// Every constant an AVX2 body multiplies by, read back from the slots
	// that body reads, for every m in 8 … 8192: in each radix-4 stage with
	// q ≥ 2 of either direction, lane k of the runs of four (k = 0 … 3 when
	// q = 2, whose runs read k mod 2) takes butterfly k mod q's w^r, its real
	// part at float 24·(k/4) + 8·(r−1) + k%4 and its imaginary part four
	// floats later; the untwist of position p has its real part at
	// 8·(p/4) + p%4 and its imaginary part four floats later. Each must be
	// the natural table's (re, im).
	check := func(what string, table []float64, i int, want float64) {
		t.Helper()
		if table[i] != want {
			t.Fatalf("%s: float %d holds %v, want %v", what, i, table[i], want)
		}
	}
	for m := 8; m <= 8192; m <<= 1 {
		p := NewProcessor(2 * m)
		for _, dir := range []struct {
			name   string
			stages []stage
		}{{"forward", p.fwd}, {"inverse", p.inv}} {
			for _, st := range dir.stages {
				q := st.size >> 2
				if q < 2 {
					if st.planar != nil {
						t.Fatalf("m=%d %s s=%d: a planar table no body reads", m, dir.name, st.size)
					}
					continue
				}
				if lanes := max(q, 4); len(st.planar) != 6*lanes {
					t.Fatalf("m=%d %s s=%d: %d planar floats for %d lanes", m, dir.name, st.size, len(st.planar), lanes)
				}
				for k := 0; k < max(q, 4); k++ {
					for r := 1; r <= 3; r++ {
						what := fmt.Sprintf("m=%d %s s=%d lane %d w^%d", m, dir.name, st.size, k, r)
						i, nat := 24*(k/4)+8*(r-1)+k%4, 6*(k%q)+2*(r-1)
						check(what+" re", st.planar, i, st.tw[nat])
						check(what+" im", st.planar, i+4, st.tw[nat+1])
					}
				}
			}
		}
		if len(p.untwistPlanar) != len(p.untwist) {
			t.Fatalf("m=%d: %d planar untwist floats for %d untwist floats", m, len(p.untwistPlanar), len(p.untwist))
		}
		for pos := 0; pos < m; pos++ {
			what := fmt.Sprintf("m=%d untwist position %d", m, pos)
			i := 8*(pos/4) + pos%4
			check(what+" re", p.untwistPlanar, i, p.untwist[2*pos])
			check(what+" im", p.untwistPlanar, i+4, p.untwist[2*pos+1])
		}
	}
}

func TestPlanarConversionsInvert(t *testing.T) {
	// toPlanar puts value j's parts at floats 8·(j/4) + j%4 and four on;
	// toInterleaved restores every bit, zeros' signs and NaNs included.
	in := make([]complex128, 64)
	kernelOperands(rand.New(rand.NewSource(67)), in)
	in[5] = complex(math.NaN(), math.Copysign(0, -1))
	buf := append([]complex128(nil), in...)
	toPlanar(buf)
	f := unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), 2*len(buf))
	for j, v := range in {
		i := 8*(j/4) + j%4
		if math.Float64bits(f[i]) != math.Float64bits(real(v)) || math.Float64bits(f[i+4]) != math.Float64bits(imag(v)) {
			t.Fatalf("value %d: planar floats %d and %d hold %v, %v, want %v", j, i, i+4, f[i], f[i+4], v)
		}
	}
	toInterleaved(buf)
	for j := range in {
		if math.Float64bits(real(buf[j])) != math.Float64bits(real(in[j])) || math.Float64bits(imag(buf[j])) != math.Float64bits(imag(in[j])) {
			t.Fatalf("value %d: round trip gives %v, want %v", j, buf[j], in[j])
		}
	}
}

func TestStageKernelsMatchReferenceBitwise(t *testing.T) {
	// The butterfly passes that have an AVX2 body, called directly on the
	// layout the transforms hand them, converted at the test's boundary:
	// every radix-4 stage with q ≥ 4 of every N in 8 … 16384, forward and
	// inverse tables, block-planar in and out; the forward tail (the q = 2
	// stage and the radix-2 pass), block-planar in and interleaved out, and
	// the inverse head (the radix-2 pass and the q = 2 stage), interleaved in
	// and block-planar out, at every m = 2·4^j from 32 — each at a buffer
	// offset of zero and of one complex value, one of which is 16- but not
	// 32-byte aligned whatever the allocator did. With the AVX2 bodies off
	// both sides run the reference. (The VMA's body is the tile MAC's:
	// TestMulAccTileMatchesReferenceBitwise.)
	bothBodies(t, func(t *testing.T) {
		avx := torus.UseAVX2()
		rng := rand.New(rand.NewSource(31))
		compare := func(what string, got, want []complex128) {
			t.Helper()
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s: slot %d is %v, reference %v", what, i, got[i], want[i])
			}
		}
		for m := 4; m <= 8192; m <<= 1 {
			fwd, inv := buildStages(m, +1), buildStages(m, -1)
			for off := 0; off < 2; off++ {
				in := make([]complex128, m+off)
				kernelOperands(rng, in)
				for i, st := range fwd {
					if st.size < 16 {
						continue
					}
					for _, k := range []struct {
						name string
						body func(buf *complex128, n, s int, tw *float64)
						ref  func([]complex128, stage)
						st   stage
					}{{"fwdStage4", fwdStage4AVX2, fwdStage4Ref, st}, {"invStage4", invStage4AVX2, invStage4Ref, inv[i]}} {
						got, want := append([]complex128(nil), in...), append([]complex128(nil), in...)
						if g := got[off:]; avx {
							toPlanar(g)
							k.body(unsafe.SliceData(g), m, k.st.size, unsafe.SliceData(k.st.planar))
							toInterleaved(g)
						} else {
							k.ref(g, k.st)
						}
						k.ref(want[off:], k.st)
						compare(fmt.Sprintf("%s m=%d s=%d offset %d", k.name, m, st.size, off), got, want)
					}
				}
				if m < 32 || fwd[len(fwd)-1].size != 2 {
					continue
				}
				tail, head := fwd[len(fwd)-2], inv[len(inv)-2]
				got, want := append([]complex128(nil), in...), append([]complex128(nil), in...)
				if g := got[off:]; avx {
					toPlanar(g)
					fwdTailAVX2(unsafe.SliceData(g), m, unsafe.SliceData(tail.planar))
				} else {
					fwdStage4Ref(g, tail)
					fwdStage2Ref(g)
				}
				fwdStage4Ref(want[off:], tail)
				fwdStage2Ref(want[off:])
				compare(fmt.Sprintf("fwdTail m=%d offset %d", m, off), got, want)

				kernelOperands(rng, got)
				copy(want, got)
				src := append([]complex128(nil), in...)
				if g := got[off:]; avx {
					invHeadAVX2(unsafe.SliceData(g), unsafe.SliceData(src[off:]), m, unsafe.SliceData(head.planar))
					toInterleaved(g)
				} else {
					invFirstRef(g, src[off:], 2)
					invStage4Ref(g, head)
				}
				invFirstRef(want[off:], in[off:], 2)
				invStage4Ref(want[off:], head)
				compare(fmt.Sprintf("invHead m=%d offset %d", m, off), got, want)
				compare(fmt.Sprintf("invHead m=%d offset %d source", m, off), src, in)
			}
		}
	})
}

func TestDecompLoadMatchesReferenceBitwise(t *testing.T) {
	// The fused load called directly, against decompLoadRef, its
	// block-planar output converted back: every level count shape
	// (register-held 2 and 3, the general loop, one-bit digits, gadgets that
	// use all 32 bits so rshift = 0), plain and rot-sub with the rotation
	// stepping through every run shape — the boundary inside a block or on
	// its edge, a run empty, of one block (the reference's), of exactly the
	// two blocks an AVX2 step takes, of three (one step and the overlapped
	// last one), and every length mod 8 on both runs; first half or second
	// half wrapped; e ≥ N — over sources that mix random words with 0, 2^31
	// and 2^32 − 1.
	decs := []poly.Decomposer{poly.NewDecomposer(10, 2), poly.NewDecomposer(7, 3), poly.NewDecomposer(4, 8), poly.NewDecomposer(1, 32), poly.NewDecomposer(16, 2), poly.NewDecomposer(8, 4)}
	bothBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		special := []torus.Torus32{0, 1 << 31, 1<<32 - 1, 1<<31 - 1, 1<<31 + 1, 1}
		for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384} {
			p := NewProcessor(n)
			m := n / 2
			random, mixed := poly.New(n), poly.New(n)
			poly.Uniform(rng, random)
			for i := range mixed.Coeffs {
				mixed.Coeffs[i] = special[rng.Intn(len(special))]
				if rng.Intn(3) == 0 {
					mixed.Coeffs[i] = random.Coeffs[i]
				}
			}
			var es []int
			for r := 0; r < m; r++ {
				if r <= 13 || r >= m-13 {
					es = append(es, r, r+m, r+n, r+m+n)
				}
			}
			for _, dec := range decs {
				got, want := p.NewFourierPolyBatch(dec.Level), p.NewFourierPolyBatch(dec.Level)
				check := func(src poly.Poly, e int, rotSub bool) {
					for l := range got {
						for i := range got[l] {
							got[l][i] = complex(math.NaN(), 1) // a slot the load skips shows
						}
					}
					if p.planar() {
						p.decompLoadPlanar(got, dec, src, e, rotSub)
						for l := range got {
							toInterleaved(got[l])
						}
					} else {
						p.decompLoadRef(got, dec, src, e, rotSub, 0, m)
					}
					p.decompLoadRef(want, dec, src, e, rotSub, 0, m)
					for l := range got {
						if i := sameBits(got[l], want[l]); i >= 0 {
							t.Fatalf("n=%d gadget %v e=%d rotSub=%v level %d slot %d: %v, reference %v", n, dec, e, rotSub, l, i, got[l][i], want[l][i])
						}
					}
				}
				srcs := []poly.Poly{mixed, random}
				if n > 2048 {
					srcs = srcs[:1] // the large sizes add run lengths, not values
				}
				for _, src := range srcs {
					check(src, 0, false)
					for _, e := range es {
						check(src, e, true)
					}
				}
			}
		}
	})
}

func TestDecompLoadAVX2WritesOnlyItsRun(t *testing.T) {
	// The AVX2 body called directly over one run [lo, lo+cnt) of whole
	// blocks: every level holds decompLoadRef's bits there, block-planar,
	// and nothing is written outside it, for the plain load (offsets 0 and
	// m, no sign) and the rot-sub run from k of e = k < m (offsets −k and
	// m−k, no sign), at four level counts, one step and several, aligned to
	// eight pairs and not.
	if !torus.HasAVX2() {
		t.Skip("no AVX2 body on this build and host")
	}
	withKernel(true, func() {
		const n = 256
		m := n / 2
		p := NewProcessor(n)
		src := poly.New(n)
		poly.Uniform(rand.New(rand.NewSource(59)), src)
		for _, dec := range []poly.Decomposer{poly.NewDecomposer(10, 2), poly.NewDecomposer(8, 3), poly.NewDecomposer(1, 32), poly.NewDecomposer(4, 5)} {
			lb, bl := dec.Level, uint32(dec.BaseLog)
			rshift := 32 - bl*uint32(lb)
			var rhalf uint32
			if rshift > 0 {
				rhalf = 1 << (rshift - 1)
			}
			got, want := p.NewFourierPolyBatch(lb), p.NewFourierPolyBatch(lb)
			var dp [32]unsafe.Pointer
			for l := range got {
				dp[l] = unsafe.Pointer(unsafe.SliceData(got[l]))
			}
			for _, k := range []int{0, 3, 37} {
				rotSub := k != 0
				var sub uint32
				if rotSub {
					sub = ^uint32(0)
				}
				p.decompLoadRef(want, dec, src, k, rotSub, 0, m)
				a := (k + 3) &^ 3 // the first block of the run
				for _, r := range [][2]int{{a, 8}, {a + 4, 16}, {a + 8, 24}, {m - 8, 8}, {a, (m - a) &^ 7}} {
					lo, cnt := r[0], r[1]
					for l := range got {
						for i := range got[l] {
							got[l][i] = complex(math.NaN(), math.NaN())
						}
					}
					word := func(x int) *uint32 { return (*uint32)(&src.Coeffs[x]) }
					decompLoadAVX2(&dp[0], lb, &p.twist[lo], &p.twist[m+lo], word(lo-k), word(lo+m-k), word(lo), word(lo+m), lo, cnt, 0, 0, sub, rhalf, uint32(1)<<bl-1, rshift, bl)
					for l := range got {
						toInterleaved(got[l])
					}
					for l := range got {
						for j := range got[l] {
							written := !math.IsNaN(real(got[l][j]))
							if inside := j >= lo && j < lo+cnt; written != inside {
								t.Fatalf("gadget %v k=%d [%d, %d) level %d: slot %d written=%v", dec, k, lo, lo+cnt, l, j, written)
							}
							if written && sameBits(got[l][j:j+1], want[l][j:j+1]) >= 0 {
								t.Fatalf("gadget %v k=%d [%d, %d) level %d slot %d: %v, reference %v", dec, k, lo, lo+cnt, l, j, got[l][j], want[l][j])
							}
						}
					}
				}
			}
		}
	})
}

func TestTwistPlanes(t *testing.T) {
	// The twist table is two planes: e^(iπj/N) has its real part at j and
	// its imaginary part at m + j, for every m in 2 … 8192.
	for m := 2; m <= 8192; m <<= 1 {
		n := 2 * m
		p := NewProcessor(n)
		if len(p.twist) != 2*m {
			t.Fatalf("m=%d: %d twist floats, want %d", m, len(p.twist), 2*m)
		}
		for j := 0; j < m; j++ {
			w := cmplx.Exp(complex(0, math.Pi*float64(j)/float64(n)))
			if math.Abs(p.twist[j]-real(w)) > 1e-15 || math.Abs(p.twist[m+j]-imag(w)) > 1e-15 {
				t.Fatalf("m=%d j=%d: planes hold (%v, %v), e^(iπj/N) is %v", m, j, p.twist[j], p.twist[m+j], w)
			}
		}
	}
}

func TestDecompLoadRefPairRange(t *testing.T) {
	// The reference load over a pair range, as the fast load hands it a
	// run shorter than eight pairs: only the slots of [lo, hi) are written, and
	// they hold what the full-range load puts there, plain and rot-sub.
	const n = 64
	p := NewProcessor(n)
	m := n / 2
	dec := poly.NewDecomposer(7, 3)
	src := poly.New(n)
	poly.Uniform(rand.New(rand.NewSource(53)), src)
	full, got := p.NewFourierPolyBatch(dec.Level), p.NewFourierPolyBatch(dec.Level)
	for _, e := range []int{0, 5, m + 3, n + 7} {
		rotSub := e != 0
		p.decompLoadRef(full, dec, src, e, rotSub, 0, m)
		for _, r := range [][2]int{{0, 0}, {0, 3}, {5, 6}, {m - 3, m}, {7, m - 2}, {0, m}} {
			lo, hi := r[0], r[1]
			for l := range got {
				for i := range got[l] {
					got[l][i] = complex(math.NaN(), math.NaN())
				}
			}
			p.decompLoadRef(got, dec, src, e, rotSub, lo, hi)
			for l := range got {
				for j := range got[l] {
					written := !math.IsNaN(real(got[l][j]))
					if inside := j >= lo && j < hi; written != inside {
						t.Fatalf("e=%d [%d, %d) level %d: slot %d written=%v", e, lo, hi, l, j, written)
					}
					if written && got[l][j] != full[l][j] {
						t.Fatalf("e=%d [%d, %d) level %d slot %d: %v, full-range load %v", e, lo, hi, l, j, got[l][j], full[l][j])
					}
				}
			}
		}
	}
}

// foldValues is what TestInvFoldMatchesReferenceBitwise pushes through the
// rounding lanes one by one: the TestRoundToTorusBoundaries table, exact
// ties ±(n + ½) with their float64 neighbours, both zeros, and values of
// every binade from 2^-3 to 2^61 of either sign.
func foldValues(rng *rand.Rand) []float64 {
	vals := []float64{0, math.Copysign(0, -1), 0.49, 2147483647, 2147483648, -2147483648, 4294967296, 4294967297,
		-4294967295, 1152921504606846976, 1152921513196781568, 1<<52 - 1, 1<<52 + 1, 1<<53 - 1}
	for _, x := range []float64{0.5, 1.5, 2.5, 0.49999999999999994, 2147483647.5, 2147483648.5, 4294967295.5, 4294967296.5,
		6442450943.5, 1<<40 + 0.5, 1<<51 - 0.5, 4503599627370495.5} {
		for _, y := range []float64{x, -x} {
			vals = append(vals, y, math.Nextafter(y, math.Inf(1)), math.Nextafter(y, math.Inf(-1)))
		}
	}
	for exp := -3; exp <= 61; exp++ {
		for i := 0; i < 16; i++ {
			x := math.Ldexp(1+float64(rng.Uint64()>>12)/(1<<52), exp)
			if i%2 == 1 {
				x = -x
			}
			vals = append(vals, x)
		}
	}
	return vals
}

func TestInvFoldMatchesReferenceBitwise(t *testing.T) {
	// The fold stage called directly, at every transform length and at a
	// source offset of zero and of one complex value (16- but not 32-byte
	// aligned), its AVX2 body (m ≥ 16) on the source made block-planar. First through the real tables, with operands of every
	// binade up to 2^61. Then value by value: with the other three legs'
	// inputs zero and an all-real untwist table, the four outputs of
	// butterfly k are all src[k] and its parts reach roundToTorus unchanged,
	// so every entry of foldValues passes through a rounding lane in every
	// lane position, and the sum must also be what roundToTorus says.
	bothBodies(t, func(t *testing.T) {
		avx := torus.UseAVX2()
		rng := rand.New(rand.NewSource(47))
		vals := foldValues(rng)
		for m := 2; m <= 8192; m <<= 1 {
			p := NewProcessor(2 * m)
			st := p.inv[len(p.inv)-1]
			q := max(st.size>>2, 1)
			unit := make([]float64, 2*m)
			for i := 0; i < m; i++ {
				unit[2*i] = 1
			}
			init := make([]torus.Torus32, 2*m)
			for i := range init {
				init[i] = rng.Uint32()
			}
			unitPlanar := planarTable(unit, 1)
			fold := func(what string, off int, src []complex128, untwist, planar []float64) []torus.Torus32 {
				got, want := append([]torus.Torus32(nil), init...), append([]torus.Torus32(nil), init...)
				if avx && m >= 16 {
					ps := make([]complex128, m+off)[off:]
					copy(ps, src)
					toPlanar(ps)
					invFoldAVX2(unsafe.SliceData(got), unsafe.SliceData(ps), q, unsafe.SliceData(st.planar), unsafe.SliceData(planar))
				} else {
					invFoldRef(got, src, st, untwist, m)
				}
				invFoldRef(want, src, st, untwist, m)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("m=%d %s: coefficient %d is %#x, reference %#x", m, what, i, got[i], want[i])
					}
				}
				return want
			}
			for off := 0; off < 2; off++ {
				buf := make([]complex128, m+off)
				src := buf[off:]
				for round := 0; round < 8; round++ {
					for i := range src {
						re, im := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
						src[i] = complex(re*rng.Float64(), im*rng.Float64())
					}
					fold(fmt.Sprintf("offset %d, real tables", off), off, src, p.untwist, p.untwistPlanar)
				}
				for lo := 0; lo < len(vals) && m >= 4; lo += 2 * q {
					clear(src)
					for k := 0; k < q; k++ {
						src[k] = complex(vals[(lo+2*k)%len(vals)], vals[(lo+2*k+1)%len(vals)])
					}
					sum := fold(fmt.Sprintf("offset %d, values from %d", off, lo), off, src, unit, unitPlanar)
					for pos := 0; pos < m; pos++ {
						y := src[pos%q]
						if wr, wi := init[pos]+roundToTorus(real(y)), init[pos+m]+roundToTorus(imag(y)); sum[pos] != wr || sum[pos+m] != wi {
							t.Fatalf("m=%d position %d: %v folded to (%#x, %#x), roundToTorus gives (%#x, %#x)", m, pos, y, sum[pos], sum[pos+m], wr, wi)
						}
					}
				}
			}
		}
	})
}

func TestKernelSwitchMidRun(t *testing.T) {
	// One goroutine flips the kernels in a loop while two others transform
	// at N = 1024: whichever layout each call takes, every output must be
	// the reference's, bit for bit. A transform that read the switch per
	// pass, not once per call, would mix the two layouts in one buffer.
	const n = 1024
	p := NewProcessor(n)
	dec := poly.NewDecomposer(10, 2)
	rng := rand.New(rand.NewSource(61))
	src := poly.New(n)
	poly.Uniform(rng, src)
	es := []int{0, 1, 6, 301, 512, 1030, 2047}
	fp := p.NewFourierPoly()
	kernelOperands(rng, fp)
	for i := range fp {
		// Magnitudes the fold rounds exactly (below 2^52 after the 1/m).
		fp[i] = complex(math.Mod(real(fp[i]), 1<<50), math.Mod(imag(fp[i]), 1<<50))
	}
	wantDec := make([][]FourierPoly, len(es))
	wantInv := poly.New(n)
	withKernel(false, func() {
		for i, e := range es {
			wantDec[i] = p.NewFourierPolyBatch(dec.Level)
			p.ForwardDecomposeRotSub(wantDec[i], dec, src, e)
		}
		p.InverseTo(wantInv, fp)
	})

	prev := SetFastKernel(true)
	defer SetFastKernel(prev)
	// The workers go on until the switch has moved often while they ran,
	// however the scheduler interleaves the three goroutines.
	var flips atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				SetFastKernel(flips.Add(1)%2 == 0)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := p.NewFourierPolyBatch(dec.Level)
			inv := poly.New(n)
			start := flips.Load()
			for round := 0; round < 100 || flips.Load()-start < 1e6; round++ {
				for i, e := range es {
					p.ForwardDecomposeRotSub(got, dec, src, e)
					for l := range got {
						if j := sameBits(got[l], wantDec[i][l]); j >= 0 {
							t.Errorf("round %d e=%d level %d slot %d: %v, reference %v", round, e, l, j, got[l][j], wantDec[i][l][j])
							return
						}
					}
				}
				clear(inv.Coeffs)
				p.InverseTo(inv, fp)
				for j := range inv.Coeffs {
					if inv.Coeffs[j] != wantInv.Coeffs[j] {
						t.Errorf("round %d InverseTo coefficient %d: %#x, reference %#x", round, j, inv.Coeffs[j], wantInv.Coeffs[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
}

func TestInverseToNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	p := NewProcessor(1024)
	src := make([]int32, 1024)
	src[1] = 3
	fp := fwdInt(p, src)
	dst := poly.New(1024)
	// Warm the scratch pool, then require steady-state zero allocations.
	p.InverseTo(dst, fp)
	if avg := testing.AllocsPerRun(100, func() { p.InverseTo(dst, fp) }); avg != 0 {
		t.Errorf("InverseTo allocates %v per call, want 0", avg)
	}
}

// benchKernels runs the benchmark under each kernel set: the AVX2 bodies,
// then the reference.
func benchKernels(b *testing.B, run func(b *testing.B)) {
	for _, set := range []string{"avx2", "ref"} {
		b.Run("kernel="+set, func(b *testing.B) {
			withKernel(set == "avx2", func() {
				if KernelSet() != set {
					b.Skipf("this build and host run %q here", KernelSet())
				}
				run(b)
			})
		})
	}
}

func BenchmarkFFTForward(b *testing.B) {
	p := NewProcessor(1024)
	rng := rand.New(rand.NewSource(19))
	src := poly.New(1024)
	poly.Uniform(rng, src)
	dst := p.NewFourierPoly()
	benchKernels(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ForwardTorusTo(dst, src)
		}
	})
}

func BenchmarkFFTInverse(b *testing.B) {
	p := NewProcessor(1024)
	rng := rand.New(rand.NewSource(23))
	src := poly.New(1024)
	poly.Uniform(rng, src)
	fp := fwdTorus(p, src)
	dst := poly.New(1024)
	benchKernels(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.InverseTo(dst, fp)
		}
	})
}

// BenchmarkMulAccTile is one CMux step's Fourier MAC at set I's shape
// (m = 512, k = 1, lb = 2) for a group of 1, 2 and 4 members, per
// ciphertext: what a member costs when the key load is shared.
func BenchmarkMulAccTile(b *testing.B) {
	for _, g := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			accs, digs, key := tileOperands(rand.New(rand.NewSource(39)), g, 2, 2, 512, false)
			benchKernels(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulAccTile(accs, digs, key)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g), "ns/ct")
			})
		})
	}
}

// BenchmarkFFTForwardDecompose is the fused decompose load and the forward
// stages of every level: at set I's N = 1024 and gadget (10, 2) under the
// bare rotsub= names, whose m = 512 transform ends in the radix-2 pass, and
// at set III's N = 2048 and gadget (8, 3) under n=2048, whose m = 1024 = 4⁵
// transform ends in the q = 1 radix-4 stage, which has only a reference
// body.
func BenchmarkFFTForwardDecompose(b *testing.B) {
	bench := func(b *testing.B, n int, dec poly.Decomposer) {
		p := NewProcessor(n)
		rng := rand.New(rand.NewSource(29))
		src := poly.New(n)
		poly.Uniform(rng, src)
		dsts := p.NewFourierPolyBatch(dec.Level)
		for _, rotSub := range []bool{false, true} {
			b.Run(fmt.Sprintf("rotsub=%v", rotSub), func(b *testing.B) {
				benchKernels(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if rotSub {
							p.ForwardDecomposeRotSub(dsts, dec, src, 2*i+1)
						} else {
							p.ForwardDecompose(dsts, dec, src)
						}
					}
				})
			})
		}
	}
	bench(b, 1024, poly.NewDecomposer(10, 2))
	b.Run("n=2048", func(b *testing.B) { bench(b, 2048, poly.NewDecomposer(8, 3)) })
}

// BenchmarkFFTPasses times each pass of set I's CMux transforms (N = 1024,
// m = 512, gadget (10, 2)) alone, per kernel set: the forward transform's
// decompose load (rot-sub, both levels, the rotation stepping), its
// radix-4 stages and its tail (the q = 2 stage and the radix-2 pass), and
// the inverse transform's head (the radix-2 pass and the q = 2 stage), its
// radix-4 stages and its fold. The AVX2 passes take the block-planar
// layout the transforms give them. The butterfly buffers hold zeros: a
// pass's time does not depend on the values, bar subnormals, and zeros do
// not grow into them over repeated calls.
func BenchmarkFFTPasses(b *testing.B) {
	const n = 1024
	p := NewProcessor(n)
	m := p.m
	dec := poly.NewDecomposer(10, 2)
	src := poly.New(n)
	poly.Uniform(rand.New(rand.NewSource(71)), src)
	digs := p.NewFourierPolyBatch(dec.Level)
	buf, scratch := make([]complex128, m), make([]complex128, m)
	dst := make([]torus.Torus32, n)
	ptr := func(s []complex128) *complex128 { return unsafe.SliceData(s) }
	e := 0
	type pass struct {
		name     string
		avx, ref func()
	}
	passes := []pass{{"fwd/load",
		func() { e = (e + 77) % (2 * n); p.decompLoadPlanar(digs, dec, src, e, true) },
		func() { e = (e + 77) % (2 * n); p.decompLoadRef(digs, dec, src, e, true, 0, m) }}}
	for _, st := range p.fwd {
		switch st.size {
		case 8:
			passes = append(passes, pass{"fwd/tail",
				func() { fwdTailAVX2(ptr(buf), m, unsafe.SliceData(st.planar)) },
				func() { fwdStage4Ref(buf, st); fwdStage2Ref(buf) }})
		case 2:
		default:
			passes = append(passes, pass{fmt.Sprintf("fwd/s=%d", st.size),
				func() { fwdStage4AVX2(ptr(buf), m, st.size, unsafe.SliceData(st.planar)) },
				func() { fwdStage4Ref(buf, st) }})
		}
	}
	head, last := p.inv[1], len(p.inv)-1
	passes = append(passes, pass{"inv/head",
		func() { invHeadAVX2(ptr(scratch), ptr(buf), m, unsafe.SliceData(head.planar)) },
		func() { invFirstRef(scratch, buf, 2); invStage4Ref(scratch, head) }})
	for _, st := range p.inv[2:last] {
		passes = append(passes, pass{fmt.Sprintf("inv/s=%d", st.size),
			func() { invStage4AVX2(ptr(scratch), m, st.size, unsafe.SliceData(st.planar)) },
			func() { invStage4Ref(scratch, st) }})
	}
	fold := p.inv[last]
	passes = append(passes, pass{"inv/fold",
		func() {
			invFoldAVX2(unsafe.SliceData(dst), ptr(scratch), m/4, unsafe.SliceData(fold.planar), unsafe.SliceData(p.untwistPlanar))
		},
		func() { invFoldRef(dst, scratch, fold, p.untwist, m) }})
	for _, set := range []string{"avx2", "ref"} {
		b.Run("kernel="+set, func(b *testing.B) {
			if set == "avx2" && !FastKernelAvailable() {
				b.Skip("no AVX2 body on this build and host")
			}
			for _, ps := range passes {
				run := ps.ref
				if set == "avx2" {
					run = ps.avx
				}
				b.Run(ps.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
		})
	}
}
