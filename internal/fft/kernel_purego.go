//go:build purego

package fft

import (
	"repro/internal/poly"
	"repro/internal/torus"
)

// purego build: the fast kernels and their assembly are excluded and every
// dispatch site resolves to the reference implementation.
// fastKernelAvailable = false keeps SetFastKernel a no-op, so the stubs below
// are never reached at runtime; they exist only to satisfy the call sites.

const fastKernelAvailable = false

func loadTorusFast(dst FourierPoly, src []torus.Torus32, twist []float64) {
	loadTorusRef(dst, src, twist)
}

func loadIntFast(dst FourierPoly, src []int32, twist []float64) {
	loadIntRef(dst, src, twist)
}

func fwdStage4Fast(buf []complex128, s int, tw []float64) { fwdStage4Ref(buf, s, tw) }

func fwdStage2Fast(buf []complex128) { fwdStage2Ref(buf) }

func invFirstFast(dst, src []complex128, size int) { invFirstRef(dst, src, size) }

func invStage4Fast(buf []complex128, s int, tw []float64) { invStage4Ref(buf, s, tw) }

func invFoldFast(dst []torus.Torus32, src []complex128, st stage, untwist []float64, m int) {
	invFoldRef(dst, src, st, untwist, m)
}

func mulAccTileFast(accs, digs [][]FourierPoly, key FourierPoly) { mulAccTileRef(accs, digs, key) }

func (p *Processor) decompLoadFast(dsts []FourierPoly, dec poly.Decomposer, src poly.Poly, e int, rotSub bool) {
	p.decompLoadRef(dsts, dec, src, e, rotSub)
}
