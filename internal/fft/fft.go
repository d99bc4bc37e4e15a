package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/poly"
	"repro/internal/torus"
)

// FourierPoly is a polynomial in the folded Fourier domain: N/2 complex
// evaluations at the odd 2N-th roots of unity (one per conjugate pair).
// The evaluations are stored in kernel order — the digit-reversed order
// the radix-4/radix-2 decimation-in-frequency forward transform emits —
// not in ascending root order. Kernel order is an implementation detail:
// it is consistent between the forward and inverse transforms and across
// the pointwise MACs (MulAcc, MulAccTile), which is all the negacyclic
// convolution needs, and skipping the reordering pass is part of what
// makes the kernels fast.
type FourierPoly []complex128

// stage is one butterfly pass of the iterative transform. Radix-4 stages
// carry a packed twiddle table walked sequentially by the inner loop —
// six floats (w^k, w^2k, w^3k as re/im pairs) per butterfly index k,
// shared by every block of the stage — and the same twiddles in the
// block-planar orders the SIMD bodies read (planarTable): in blocks of four
// values when q = s/4 ≥ 2, and in blocks of eight where the processor has
// eight-value bodies (Processor.eight) and q ≥ 2. The final radix-2 stage
// of an odd-log2 size (and the trivial first inverse stages) need no
// twiddles.
type stage struct {
	size    int       // butterfly block size s
	tw      []float64 // packed twiddles; nil for radix-2
	planar  []float64 // planarTable(tw, 3, 4); nil for q < 2
	planar8 []float64 // planarTable(tw, 3, 8); nil for q < 2 or without eight-value bodies
}

// Processor performs folded negacyclic FFTs for a fixed polynomial size N.
// It precomputes per-stage twiddle tables and the twist/fold tables; create
// one per N with NewProcessor and reuse it (it is safe for concurrent use,
// as all methods only read the precomputed tables and write to
// caller-provided buffers or pooled scratch).
//
// Aliasing and in-place contracts of the entry points:
//
//   - ForwardTorusTo / ForwardIntTo / ForwardDecompose: dst is fully
//     overwritten; src is read-only. dst must not alias src storage.
//   - InverseTo: fp is READ-ONLY (the transform runs in pooled processor
//     scratch) and the rounded result is ADDED into dst, so a Fourier
//     accumulator can be inverse-transformed and then reused.
//   - MulAcc: acc may alias a or b; all operands must have equal length
//     (mismatches panic).
//   - MulAccTile: every accumulator is fully overwritten and must not
//     alias a digit or the key.
type Processor struct {
	n int // polynomial size N (power of two)
	m int // FFT size N/2

	// twist holds e^(iπ j / N) in two planes, the m real parts and then the
	// m imaginary parts (twist[j], twist[m+j]); multiplied in during the
	// forward load/convert pass (folding the two real halves into one
	// complex polynomial). The decompose load's SIMD bodies read four or
	// eight values of a plane into each register.
	twist []float64
	// untwist holds conj(e^(iπ j / N)) / m as interleaved re/im pairs: the
	// inverse fold and the 1/m scaling pre-combined, applied inside the
	// final inverse butterfly stage. untwistPlanar is planarTable(untwist,
	// 1, 4), the fold's AVX2 body's copy, and untwistPlanar8 the eight-value
	// body's (nil without eight-value bodies).
	untwist        []float64
	untwistPlanar  []float64
	untwistPlanar8 []float64

	// eight reports that the transforms have eight-value bodies at this
	// size: m = 2·4^j ≥ 32, so every radix-4 stage but the q = 2 one has
	// q ≥ 8 and the q = 2 stage and the radix-2 pass end the transform.
	eight bool

	fwd []stage // forward DIF stages, sizes descending m … 4 (then 2)
	inv []stage // inverse DIT stages, sizes ascending (2) 4 … m

	bufPool sync.Pool // *FourierPoly scratch buffers (see GetBuffer)
	invPool sync.Pool // *invScratch inverse-transform scratch
}

// invScratch wraps the inverse-transform scratch buffer so the sync.Pool
// round-trips one stable pointer (Put of a freshly boxed slice header
// would allocate on every inverse call).
type invScratch struct {
	buf []complex128
}

// NewProcessor returns a Processor for negacyclic polynomials of size n
// (a power of two, n >= 4).
func NewProcessor(n int) *Processor {
	if n < 4 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: invalid polynomial size %d", n))
	}
	m := n / 2
	p := &Processor{n: n, m: m, eight: m >= 32 && bits.TrailingZeros(uint(m))%2 == 1}
	p.twist = make([]float64, 2*m)
	p.untwist = make([]float64, 2*m)
	invM := 1.0 / float64(m)
	for j := 0; j < m; j++ {
		ang := math.Pi * float64(j) / float64(n)
		c, s := math.Cos(ang), math.Sin(ang)
		p.twist[j], p.twist[m+j] = c, s
		p.untwist[2*j], p.untwist[2*j+1] = c*invM, -s*invM
	}
	p.untwistPlanar = planarTable(p.untwist, 1, 4)
	if p.eight {
		p.untwistPlanar8 = planarTable(p.untwist, 1, 8)
	}
	p.fwd = buildStages(m, +1, p.eight)
	p.inv = buildStages(m, -1, p.eight)
	// The inverse runs the mirrored stage sequence smallest-first.
	for i, j := 0, len(p.inv)-1; i < j; i, j = i+1, j-1 {
		p.inv[i], p.inv[j] = p.inv[j], p.inv[i]
	}
	return p
}

// buildStages precomputes the butterfly passes for FFT size m: radix-4
// stages of size m, m/4, … and, when log2(m) is odd, one trailing radix-2
// stage. sign +1 builds the forward twiddles e^(+2πi rk/s); −1 the
// conjugate inverse tables; eight adds the eight-value planar tables.
func buildStages(m int, sign float64, eight bool) []stage {
	var stages []stage
	s := m
	for ; s >= 4; s >>= 2 {
		q := s >> 2
		tw := make([]float64, 0, 6*q)
		for k := 0; k < q; k++ {
			for r := 1; r <= 3; r++ {
				ang := sign * 2 * math.Pi * float64(r*k) / float64(s)
				tw = append(tw, math.Cos(ang), math.Sin(ang))
			}
		}
		st := stage{size: s, tw: tw}
		if q >= 2 {
			st.planar = planarTable(tw, 3, 4)
		}
		if q >= 2 && eight {
			st.planar8 = planarTable(tw, 3, 8)
		}
		stages = append(stages, st)
	}
	if s == 2 {
		stages = append(stages, stage{size: 2})
	}
	return stages
}

// planarTable returns nat, a table of per complex constants (re, im) for
// each index j, in the block-planar order the SIMD bodies read with
// blocks of w values: for every run of w indices and each constant c, the
// w real parts and then the w imaginary parts, one register each. A table
// of two indices (the q = 2 stage) becomes one run that reads them w/2
// times, j = 0, 1, 0, 1, …: the bodies that take it hold w/2 blocks'
// butterflies side by side. The table is the size of nat, or w/2 times it
// for two indices.
func planarTable(nat []float64, per, w int) []float64 {
	n := len(nat) / (2 * per)
	out := make([]float64, 0, 2*per*max(n, w))
	for j := 0; j < max(n, w); j += w {
		for c := 0; c < per; c++ {
			for part := 0; part < 2; part++ {
				for l := 0; l < w; l++ {
					out = append(out, nat[2*(((j+l)%n)*per+c)+part])
				}
			}
		}
	}
	return out
}

// N returns the polynomial size.
func (p *Processor) N() int { return p.n }

// M returns the FFT size N/2 (the folded length).
func (p *Processor) M() int { return p.m }

// NewFourierPoly allocates a zero FourierPoly of the right size.
func (p *Processor) NewFourierPoly() FourierPoly { return make(FourierPoly, p.m) }

// NewFourierPolyBatch allocates count zero FourierPolys backed by one
// contiguous complex slab, so a CMux step's digit transforms or
// accumulators stay cache-adjacent the way the hardware's ping-pong
// buffers keep them. Each has length and capacity M.
func (p *Processor) NewFourierPolyBatch(count int) []FourierPoly {
	slab := make([]complex128, count*p.m)
	out := make([]FourierPoly, count)
	for i := range out {
		out[i] = slab[i*p.m : (i+1)*p.m : (i+1)*p.m]
	}
	return out
}

// getInvScratch returns an m-sized inverse scratch buffer from the pool.
func (p *Processor) getInvScratch() *invScratch {
	if v := p.invPool.Get(); v != nil {
		return v.(*invScratch)
	}
	return &invScratch{buf: make([]complex128, p.m)}
}

// putInvScratch returns scratch obtained from getInvScratch.
func (p *Processor) putInvScratch(s *invScratch) { p.invPool.Put(s) }

// forwardStages runs the forward transform in place on buf, which a load
// has filled with interleaved values: in the block-planar layout when the
// call takes it (width, kernel_fast.go), else through the reference stages.
func (p *Processor) forwardStages(buf []complex128) {
	if w := p.width(); w > 0 {
		toPlanar(buf, w)
		p.forwardPlanar(buf, w)
		return
	}
	p.forwardRef(buf)
}

// forwardRef runs the reference DIF pass sequence in place on buf.
func (p *Processor) forwardRef(buf []complex128) {
	for _, st := range p.fwd {
		if st.size >= 4 {
			fwdStage4Ref(buf, st)
		} else {
			fwdStage2Ref(buf)
		}
	}
}

// ForwardTorusTo transforms a torus polynomial into the folded Fourier
// domain. Torus coefficients are interpreted as signed integers (centered
// representatives) to keep magnitudes small for double precision. dst is
// fully overwritten; src is read-only.
func (p *Processor) ForwardTorusTo(dst FourierPoly, src poly.Poly) {
	if src.N() != p.n || len(dst) != p.m {
		panic("fft: ForwardTorusTo size mismatch")
	}
	loadTorusRef(dst, src.Coeffs, p.twist)
	p.forwardStages(dst)
}

// ForwardIntTo transforms a small-integer polynomial (e.g. gadget
// decomposition digits) into the folded Fourier domain. dst is fully
// overwritten; src is read-only.
func (p *Processor) ForwardIntTo(dst FourierPoly, src []int32) {
	if len(src) != p.n || len(dst) != p.m {
		panic("fft: ForwardIntTo size mismatch")
	}
	loadIntRef(dst, src, p.twist)
	p.forwardStages(dst)
}

// InverseTo transforms back from the Fourier domain, rounding each real
// coefficient to the nearest integer modulo 2^32 and *adding* it into dst.
// The additive behaviour matches the Strix Accumulator Unit, which sums
// IFFT outputs in the time domain. fp is read-only: the butterfly passes
// run in pooled processor scratch, so a Fourier accumulator survives its
// own inverse transform and can be reused by the caller.
func (p *Processor) InverseTo(dst poly.Poly, fp FourierPoly) {
	if dst.N() != p.n || len(fp) != p.m {
		panic("fft: InverseTo size mismatch")
	}
	s := p.getInvScratch()
	p.inverseAccTo(dst.Coeffs, fp, s.buf)
	p.putInvScratch(s)
}

// inverseAccTo is the inverse kernel behind InverseTo: the first DIT
// stage copies fp into scratch as it computes (leaving fp untouched),
// middle stages run in place on scratch, and the final stage applies the
// fold — conj(twist)/m, round-to-torus, additive store — fused into its
// butterflies. scratch must have length m and is fully clobbered.
// When the transform is a single stage (m ≤ 4) it reads fp and folds
// directly into dst without touching scratch. The block-planar layout,
// when the call takes it, is inversePlanar's.
func (p *Processor) inverseAccTo(dst []torus.Torus32, fp FourierPoly, scratch []complex128) {
	if w := p.width(); w > 0 {
		p.inversePlanar(dst, fp, scratch, w)
		return
	}
	stages := p.inv
	last := len(stages) - 1
	if last == 0 {
		invFoldRef(dst, fp, stages[0], p.untwist, p.m)
		return
	}
	invFirstRef(scratch, fp, stages[0].size)
	for i := 1; i < last; i++ {
		invStage4Ref(scratch, stages[i])
	}
	invFoldRef(dst, scratch, stages[last], p.untwist, p.m)
}

// roundToTorus rounds a real value to the nearest integer (halves away
// from zero, like math.Round) and reduces it modulo 2^32 via integer
// truncation, which is exact for |x| < 2^62. The input is only as good
// as double precision anyway: integers are representable exactly up to
// 2^53, so accumulated products beyond that have already lost low bits
// before rounding ever happens. The kernels keep hot-path magnitudes
// below ~2^52 (digit-sized operands against 32-bit torus coefficients);
// see the roundToTorus tests for the pinned boundary behaviour and the
// 2^53 cliff.
func roundToTorus(x float64) torus.Torus32 {
	// Truncate, then add the doubled fraction truncated: f = x - i is
	// exact (|f| < 1, same sign as x), so is f+f, and int64(f+f) is ±1
	// exactly when |f| >= 1/2. math.Round does the same by bit twiddling
	// (no ROUNDSD at GOAMD64=v1) at about three times the cost. The
	// int64 -> Torus32 truncation is the mod-2^32 reduction.
	i := int64(x)
	f := x - float64(i)
	return torus.Torus32(i + int64(f+f))
}

// MulAcc sets acc += a ⊙ b (pointwise complex multiply-accumulate), one
// row of the Strix VMA unit in the frequency domain. It has one body, the
// reference: no CMux step calls it (their MAC is MulAccTile), only GLWE
// encryption at key generation. All three operands must have the same
// length; mismatched operands panic (a silent range-truncation here would
// corrupt ciphertexts noiselessly).
func MulAcc(acc, a, b FourierPoly) {
	if len(a) != len(acc) || len(b) != len(acc) {
		panic(fmt.Sprintf("fft: MulAcc size mismatch (acc %d, a %d, b %d)", len(acc), len(a), len(b)))
	}
	mulAccRef(acc, a, b)
}

// TileGroup is the most tile members one pass of MulAccTile serves with
// each key load: its AVX2 body keeps TileGroup·(k+1) accumulators in
// registers. A larger tile is walked TileGroup members at a time.
const TileGroup = 4

// MulAccTile is the Fourier MAC of one CMux step over a tile of ciphertexts
// (the Strix VMA array, §V-B): for every member t and column c it sets
//
//	accs[t][c] = Σ_r digs[t][r] ⊙ key[(r·cols+c)·n : (r·cols+c+1)·n]
//
// summing from +0 in row order, which is bitwise Clear followed by one
// MulAcc per row. key is one GGSW as a slab in the order this loop reads
// it, row r = j·lb+l of (k+1)·lb, then column c of cols = k+1, each a
// polynomial of n values; it is read once per group of TileGroup members.
// digs[t] holds member t's (k+1)·lb digit transforms and accs[t] its k+1
// accumulators, fully overwritten. Every polynomial has length n, the key
// rows·cols·n values, and no accumulator may alias an operand; a
// mismatched shape panics.
func MulAccTile(accs, digs [][]FourierPoly, key FourierPoly) {
	if len(accs) == 0 {
		return
	}
	if err := tileShape(accs, digs, key); err != "" {
		panic("fft: MulAccTile " + err)
	}
	mulAccTileFast(accs, digs, key)
}

// tileShape returns what is wrong with MulAccTile's operands, or "". The
// shape is member 0's: rows digits and cols accumulators of n values.
func tileShape(accs, digs [][]FourierPoly, key FourierPoly) string {
	if len(digs) != len(accs) {
		return fmt.Sprintf("has %d digit sets for %d members", len(digs), len(accs))
	}
	rows, cols := len(digs[0]), len(accs[0])
	if rows == 0 || cols == 0 {
		return fmt.Sprintf("member 0 has %d digits and %d accumulators", rows, cols)
	}
	n := len(accs[0][0])
	for t := range accs {
		if len(accs[t]) != cols || len(digs[t]) != rows {
			return fmt.Sprintf("member %d has %d accumulators and %d digits, want %d and %d", t, len(accs[t]), len(digs[t]), cols, rows)
		}
		for _, fps := range [2][]FourierPoly{accs[t], digs[t]} {
			for _, fp := range fps {
				if len(fp) != n {
					return fmt.Sprintf("member %d has a polynomial of %d values, want %d", t, len(fp), n)
				}
			}
		}
	}
	if len(key) != rows*cols*n {
		return fmt.Sprintf("key has %d values, want %d rows × %d columns × %d", len(key), rows, cols, n)
	}
	return ""
}

// Clear zeroes fp.
func Clear(fp FourierPoly) {
	for i := range fp {
		fp[i] = 0
	}
}
