package fft

import (
	"fmt"

	"repro/internal/poly"
)

// ForwardDecompose fuses gadget decomposition with the forward-transform
// load: for each folded coefficient pair it extracts all Level digits once
// and writes each digit level directly into its Fourier buffer with the
// twist factor applied, then runs the butterfly stages per level. This
// replaces DecomposePolyTo followed by one ForwardIntTo per level in the
// external product, eliminating the intermediate [][]int32 digit staging
// entirely (the Strix Decomposer Unit likewise streams digits straight
// into the FFT array, §V-B).
//
// The result is bitwise identical to the unfused sequence: digit
// extraction is exact integer math and the load expression has the same
// shape as ForwardIntTo's. The reference load extracts digits with
// Decomposer.DigitsTo; the fast load uses a branchless extractor with
// unchecked stores, producing identical digits (pinned by test). dsts
// must hold exactly dec.Level buffers of size M; each is fully
// overwritten. src is read-only.
func (p *Processor) ForwardDecompose(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly) {
	p.forwardDecompose(dsts, dec, src, 0, false)
}

// ForwardDecomposeRotSub is ForwardDecompose of src·X^e − src, the
// operand of a CMux step (Algorithm 1 line 6), without ever forming it:
// the value decomposed at index x is ±src[(x−e) mod N] − src[x], an index
// offset and a sign on the load instead of a rotate pass, a copy and a
// subtract pass; bitwise identical to MulByMonomialTo → SubTo →
// ForwardDecompose. e may be any integer; it is reduced modulo 2N. src is
// only read during the call, so it may be the polynomial the caller later
// adds the external product into.
func (p *Processor) ForwardDecomposeRotSub(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int) {
	p.forwardDecompose(dsts, dec, src, ((e%(2*p.n))+2*p.n)%(2*p.n), true)
}

// forwardDecompose validates, runs the fused load — of src itself, or of
// src·X^e − src with e already in [0, 2N) when rotSub is set — and then
// the butterfly stages of every level.
func (p *Processor) forwardDecompose(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool) {
	lb := dec.Level
	if len(dsts) != lb {
		panic(fmt.Sprintf("fft: ForwardDecompose level mismatch (got %d buffers, decomposer level %d)", len(dsts), lb))
	}
	if src.N() != p.n {
		panic("fft: ForwardDecompose size mismatch")
	}
	for l := range dsts {
		if len(dsts[l]) != p.m {
			panic("fft: ForwardDecompose size mismatch")
		}
	}
	if fastKernelOn() {
		p.decompLoadFast(dsts, dec, src, e, rotSub)
	} else {
		p.decompLoadRef(dsts, dec, src, e, rotSub)
	}
	for l := range dsts {
		p.forwardStages(dsts[l])
	}
}
