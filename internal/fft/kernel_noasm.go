//go:build !amd64 && !purego

package fft

import "unsafe"

// No assembly on this architecture: torus.UseAVX2 is false, the fast
// kernels never leave their Go bodies and these are never called.
func fwdStage4AVX2(buf *complex128, n, s int, tw *float64) { panic("fft: no AVX2 body") }
func invStage4AVX2(buf *complex128, n, s int, tw *float64) { panic("fft: no AVX2 body") }
func stage2AVX2(dst, src *complex128, n int)               { panic("fft: no AVX2 body") }
func mulAccTileAVX2(acc, dig, key *unsafe.Pointer, members, rows, n int) {
	panic("fft: no AVX2 body")
}
func invFoldAVX2(dst *uint32, src *complex128, q int, tw, untwist *float64) {
	panic("fft: no AVX2 body")
}
func decompLoadAVX2(dp *unsafe.Pointer, lb int, tw *float64, src *uint32, oa, ob, m, lo, cnt int, na, nb, sub, rhalf, mask uint32, rshift, bl uint) {
	panic("fft: no AVX2 body")
}
