package tfhe

import (
	"math/rand"

	"repro/internal/fft"
	"repro/internal/poly"
	"repro/internal/torus"
)

// GGSWFourier is one entry of the bootstrapping key: a GGSW ciphertext
// (a (k+1)·lb × (k+1) matrix of polynomials, §II-D) stored in the folded
// Fourier domain, as the Concrete library and Strix both do — the key is
// transformed once at key-generation time and streamed to the VMA units.
//
// Rows[j][l] is the GLWE row encrypting s·g_l·E_j (gadget level l on
// component j); each row holds k+1 Fourier polynomials.
type GGSWFourier struct {
	Rows [][][]fft.FourierPoly // [k+1][lb][k+1]
}

// EncryptGGSW encrypts the bit s under the GLWE key as a Fourier-domain
// GGSW ciphertext with the given gadget.
func EncryptGGSW(rng *rand.Rand, key GLWEKey, s int32, gadget poly.Decomposer, sigma float64, proc *fft.Processor) GGSWFourier {
	k := key.K()
	g := GGSWFourier{Rows: make([][][]fft.FourierPoly, k+1)}
	for j := 0; j <= k; j++ {
		g.Rows[j] = make([][]fft.FourierPoly, gadget.Level)
		for l := 0; l < gadget.Level; l++ {
			row := key.EncryptZero(rng, sigma)
			if s != 0 {
				// Add the constant polynomial s·Q/B^(l+1) to GLWE
				// component j: row (j,l) encrypts s·g_l·E_j.
				shift := uint(32 - gadget.BaseLog*(l+1))
				row.Polys[j].Coeffs[0] += torus.Torus32(s) << shift
			}
			// One batched burst per GLWE row, the same shape in which
			// the key is later streamed to the VMA units.
			fr := proc.NewFourierPolyBatch(k + 1)
			proc.ForwardTorusBatchTo(fr, row.Polys)
			g.Rows[j][l] = fr
		}
	}
	return g
}

// externalProductBuffers holds scratch storage for ExternalProductAcc so the
// hot path is allocation free. The Fourier burst covers a whole CMux step —
// all (k+1)·lb digit transforms — and is reused across every CMux of a
// blind rotation; there is no time-domain digit staging because the fused
// decompose+transform streams digits straight into the Fourier buffers,
// exactly as the hardware Decomposer Unit feeds the FFT array (§V-B).
type externalProductBuffers struct {
	fdig []fft.FourierPoly // [(k+1)·lb] digit transforms, component-major
	acc  []fft.FourierPoly // [k+1] Fourier accumulators
}

func newExternalProductBuffers(k, n, level int, proc *fft.Processor) *externalProductBuffers {
	if proc.N() != n {
		panic("tfhe: externalProductBuffers processor size mismatch")
	}
	b := &externalProductBuffers{
		fdig: proc.NewFourierPolyBatch((k + 1) * level),
		acc:  make([]fft.FourierPoly, k+1),
	}
	for c := range b.acc {
		b.acc[c] = proc.NewFourierPoly()
	}
	return b
}

// ExternalProductAcc computes out += GGSW ⊡ d (the external product of
// Algorithm 1 lines 7–10) in two batched phases: every component of d goes
// through the fused decompose+forward-transform (digit extraction feeding
// the FFT load directly, no intermediate digit polynomials), and the
// Fourier MAC loop then accumulates against the GGSW rows before the
// batched inverse transform with rounding. The fused path is bitwise
// identical to decomposing and transforming one digit polynomial at a
// time. counters, if non-nil, records the operation mix for the Fig 1
// experiment.
func ExternalProductAcc(out, d GLWECiphertext, g GGSWFourier, gadget poly.Decomposer, proc *fft.Processor, buf *externalProductBuffers, counters *OpCounters) {
	lb := gadget.Level
	for j, dj := range d.Polys {
		proc.ForwardDecompose(buf.fdig[j*lb:(j+1)*lb], gadget, dj)
	}
	buf.macInverse(out, g, lb, proc, counters)
}

// ExternalProductRotSubAcc computes out += GGSW ⊡ (src·X^e − src) without
// forming the rotated difference: rotation and subtraction happen inside
// the decompose load (fft.Processor.ForwardDecomposeRotSub), bitwise
// identical to rotating, subtracting and calling ExternalProductAcc. Every
// load precedes the first inverse transform, so out may be src, which is a
// blind-rotation iteration (Algorithm 1 lines 6–12): tv ← tv + GGSW(s_i) ⊡
// (tv·X^e − tv) equals tv·X^e when s_i = 1 and tv when s_i = 0.
func ExternalProductRotSubAcc(out, src GLWECiphertext, e int, g GGSWFourier, gadget poly.Decomposer, proc *fft.Processor, buf *externalProductBuffers, counters *OpCounters) {
	lb := gadget.Level
	for j, sj := range src.Polys {
		proc.ForwardDecomposeRotSub(buf.fdig[j*lb:(j+1)*lb], gadget, sj, e)
	}
	if counters != nil {
		counters.Rotations++
	}
	buf.macInverse(out, g, lb, proc, counters)
}

// macInverse is the second phase of an external product whose digit
// transforms sit in b.fdig: the Fourier MAC against the GGSW rows, then
// the batched inverse transform added into out. It counts both phases.
func (b *externalProductBuffers) macInverse(out GLWECiphertext, g GGSWFourier, lb int, proc *fft.Processor, counters *OpCounters) {
	for c := range b.acc {
		fft.Clear(b.acc[c])
	}
	for j := range g.Rows {
		for l := 0; l < lb; l++ {
			fdig := b.fdig[j*lb+l]
			for c := range b.acc {
				fft.MulAcc(b.acc[c], fdig, g.Rows[j][l][c])
			}
		}
	}
	proc.InverseBatchTo(out.Polys, b.acc)
	if counters != nil {
		k1 := int64(len(b.acc))
		counters.Decompositions += k1
		counters.ForwardFFTs += k1 * int64(lb)
		counters.VMAMuls += k1 * int64(lb) * k1 * int64(proc.M())
		counters.InverseFFTs += k1
		counters.Accumulations += k1 * int64(proc.N())
	}
}
