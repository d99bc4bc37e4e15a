//go:build !amd64 || purego

package fft

import "unsafe"

// No assembly in this build: torus.UseAVX2 is false, every loop runs its
// reference body and these are never called.
func fwdStage4AVX2(buf *complex128, n, s int, tw *float64) { panic("fft: no AVX2 body") }
func invStage4AVX2(buf *complex128, n, s int, tw *float64) { panic("fft: no AVX2 body") }
func stage2AVX2(dst, src *complex128, n int)               { panic("fft: no AVX2 body") }
func mulAccTileAVX2(acc, dig, key *unsafe.Pointer, members, rows, n int) {
	panic("fft: no AVX2 body")
}
func invFoldAVX2(dst *uint32, src *complex128, q int, tw, untwist *float64) {
	panic("fft: no AVX2 body")
}
func decompLoadAVX2(dp *unsafe.Pointer, lb int, twr, twi *float64, src *uint32, oa, ob, m, lo, cnt int, na, nb, sub, rhalf, mask, rshift, bl uint32) {
	panic("fft: no AVX2 body")
}
