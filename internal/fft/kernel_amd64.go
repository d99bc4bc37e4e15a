//go:build !purego

package fft

// The AVX2 bodies (kernel_amd64.s). n counts complex values; the stages
// need q = s/4 ≥ 2 and mulAcc an even n.

//go:noescape
func fwdStage4AVX2(buf *complex128, n, s int, tw *float64)

//go:noescape
func invStage4AVX2(buf *complex128, n, s int, tw *float64)

//go:noescape
func mulAccAVX2(acc, a, b *complex128, n int)
