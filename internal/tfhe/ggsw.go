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
// It is one slab of Params.GGSWValues complex values in the order the CMux
// step's tile MAC reads it (fft.MulAccTile), which is also the wire order:
// row r = j·lb + l, the GLWE row encrypting s·g_l·E_j (gadget level l on
// component j), then column c, the polynomial at offset (r·(k+1) + c)·N/2.
type GGSWFourier fft.FourierPoly

// EncryptGGSW encrypts the bit s under the GLWE key as a Fourier-domain
// GGSW ciphertext with p's PBS gadget and noise.
func EncryptGGSW(rng *rand.Rand, key GLWEKey, s int32, p Params) GGSWFourier {
	proc := fft.SharedProcessor(p.N)
	g := make(GGSWFourier, p.GGSWValues())
	next := g
	for j := 0; j <= p.K; j++ {
		for l := 0; l < p.PBSLevel; l++ {
			row := key.EncryptZero(rng, p.GLWEStdDev)
			if s != 0 {
				// Add the constant polynomial s·Q/B^(l+1) to GLWE
				// component j: row (j,l) encrypts s·g_l·E_j.
				shift := uint(32 - p.PBSBaseLog*(l+1))
				row.Polys[j].Coeffs[0] += torus.Torus32(s) << shift
			}
			for _, c := range row.Polys {
				proc.ForwardTorusTo(fft.FourierPoly(next[:proc.M()]), c)
				next = next[proc.M():]
			}
		}
	}
	return g
}

// externalProductBuffers holds scratch storage for the CMux steps so the
// hot path is allocation free. Each member slot of a group — one slot for
// the per-ciphertext calls, up to fft.TileGroup for BlindRotateTile —
// holds a Fourier burst covering a whole CMux step, all (k+1)·lb digit
// transforms, and the k+1 Fourier accumulators the tile MAC overwrites;
// about 48 KB a slot at set I. There is no time-domain digit staging
// because the fused decompose+transform streams digits straight into the
// Fourier buffers, exactly as the hardware Decomposer Unit feeds the FFT
// array (§V-B).
type externalProductBuffers struct {
	fdig  [][]fft.FourierPoly // [slot][(k+1)·lb] digit transforms, component-major
	acc   [][]fft.FourierPoly // [slot][k+1] Fourier accumulators
	group [fft.TileGroup]GLWECiphertext
}

// newExternalProductBuffers returns scratch with one member slot.
func newExternalProductBuffers(k, n, level int, proc *fft.Processor) *externalProductBuffers {
	if proc.N() != n {
		panic("tfhe: externalProductBuffers processor size mismatch")
	}
	b := &externalProductBuffers{}
	b.fdig = append(b.fdig, proc.NewFourierPolyBatch((k+1)*level))
	b.acc = append(b.acc, proc.NewFourierPolyBatch(k+1))
	return b
}

// reserve grows the scratch to min(members, fft.TileGroup) member slots.
func (b *externalProductBuffers) reserve(members int, proc *fft.Processor) {
	for len(b.fdig) < min(members, fft.TileGroup) {
		b.fdig = append(b.fdig, proc.NewFourierPolyBatch(len(b.fdig[0])))
		b.acc = append(b.acc, proc.NewFourierPolyBatch(len(b.acc[0])))
	}
}

// ExternalProductAcc computes out += GGSW ⊡ d (the external product of
// Algorithm 1 lines 7–10) in two batched phases: every component of d goes
// through the fused decompose+forward-transform (digit extraction feeding
// the FFT load directly, no intermediate digit polynomials), and the
// tile MAC of one member then accumulates against the GGSW rows before the
// batched inverse transform with rounding. The fused path is bitwise
// identical to decomposing and transforming one digit polynomial at a
// time. counters, if non-nil, records the operation mix for the Fig 1
// experiment.
func ExternalProductAcc(out, d GLWECiphertext, g GGSWFourier, gadget poly.Decomposer, proc *fft.Processor, buf *externalProductBuffers, counters *OpCounters) {
	lb := gadget.Level
	for j, dj := range d.Polys {
		proc.ForwardDecompose(buf.fdig[0][j*lb:(j+1)*lb], gadget, dj)
	}
	outs := [1]GLWECiphertext{out}
	buf.macInverse(outs[:], g, proc, counters)
}

// ExternalProductRotSubAcc computes acc += GGSW ⊡ (acc·X^e − acc) without
// forming the rotated difference: rotation and subtraction happen inside
// the decompose load (fft.Processor.ForwardDecomposeRotSub), bitwise
// identical to rotating, subtracting and calling ExternalProductAcc. Every
// load precedes the first inverse transform, so acc is read whole before
// it is written. That is a blind-rotation iteration (Algorithm 1 lines
// 6–12): tv ← tv + GGSW(s_i) ⊡ (tv·X^e − tv) equals tv·X^e when s_i = 1
// and tv when s_i = 0.
func ExternalProductRotSubAcc(acc GLWECiphertext, e int, g GGSWFourier, gadget poly.Decomposer, proc *fft.Processor, buf *externalProductBuffers, counters *OpCounters) {
	buf.loadRotSub(0, acc, e, gadget, proc, counters)
	outs := [1]GLWECiphertext{acc}
	buf.macInverse(outs[:], g, proc, counters)
}

// loadRotSub is the first phase of a CMux step: the fused rot-sub
// decompose+transform of src·X^e − src into member slot t.
func (b *externalProductBuffers) loadRotSub(t int, src GLWECiphertext, e int, gadget poly.Decomposer, proc *fft.Processor, counters *OpCounters) {
	lb := gadget.Level
	for j, sj := range src.Polys {
		proc.ForwardDecomposeRotSub(b.fdig[t][j*lb:(j+1)*lb], gadget, sj, e)
	}
	if counters != nil {
		counters.Rotations++
	}
}

// macInverse is the second phase of the external products whose digit
// transforms sit in the first len(outs) member slots: one tile MAC of
// those members against the GGSW slab (fft.MulAccTile, the only MAC of a
// CMux step), then each member's inverse transforms added into its outs
// entry. It counts both phases per member.
func (b *externalProductBuffers) macInverse(outs []GLWECiphertext, g GGSWFourier, proc *fft.Processor, counters *OpCounters) {
	fft.MulAccTile(b.acc[:len(outs)], b.fdig[:len(outs)], fft.FourierPoly(g))
	for t, out := range outs {
		for c, acc := range b.acc[t] {
			proc.InverseTo(out.Polys[c], acc)
		}
	}
	if counters != nil {
		k1, members := int64(len(b.acc[0])), int64(len(outs))
		rows := int64(len(b.fdig[0]))
		counters.Decompositions += members * k1
		counters.ForwardFFTs += members * rows
		counters.VMAMuls += members * rows * k1 * int64(proc.M())
		counters.InverseFFTs += members * k1
		counters.Accumulations += members * k1 * int64(proc.N())
	}
}
