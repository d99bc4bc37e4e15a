package torus

// useAVX2 is the one SIMD feature switch in the tree: set once at start-up
// from CPUID (amd64 builds without the `purego` tag; false everywhere
// else) and consulted by MulSub here and by the fast FFT kernels through
// UseAVX2. Only tests write it afterwards, to keep the Go bodies honest.
var useAVX2 = detectAVX2()

// UseAVX2 reports whether the AVX2 assembly bodies run on this host.
func UseAVX2() bool { return useAVX2 }

// MulSub sets dst[i] -= src[i]·d for every i, the row update of the
// keyswitch (Algorithm 2, lines 4–6). It is arithmetic mod 2^32, so the
// eight-word AVX2 body and the Go loop (the reference, and the tail) are
// exactly equal. dst and src must have the same length.
func MulSub(dst, src []Torus32, d int32) {
	if len(src) != len(dst) {
		panic("torus: MulSub length mismatch")
	}
	if n := len(dst) &^ 7; useAVX2 && n > 0 {
		mulSubAVX2(&dst[0], &src[0], n, d)
		dst, src = dst[n:], src[n:]
	}
	for i, w := range src {
		dst[i] -= Torus32(int32(w) * d)
	}
}
