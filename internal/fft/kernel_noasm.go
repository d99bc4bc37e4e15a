//go:build !amd64 && !purego

package fft

// No assembly on this architecture: torus.UseAVX2 is false, the fast
// kernels never leave their Go bodies and these are never called.
func fwdStage4AVX2(buf *complex128, n, s int, tw *float64) { panic("fft: no AVX2 body") }
func invStage4AVX2(buf *complex128, n, s int, tw *float64) { panic("fft: no AVX2 body") }
func mulAccAVX2(acc, a, b *complex128, n int)              { panic("fft: no AVX2 body") }
