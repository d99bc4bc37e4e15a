package torus

import "sync/atomic"

// hasAVX2 is what CPUID reported at start-up (amd64 builds without the
// `purego` tag; false everywhere else).
var hasAVX2 = detectAVX2()

// useAVX2 is the one SIMD switch in the tree: MulSub here and every FFT
// loop (through UseAVX2) run their AVX2 bodies while it holds and their Go
// reference bodies otherwise. It starts as hasAVX2; SetAVX2 moves it.
var useAVX2 atomic.Bool

func init() { useAVX2.Store(hasAVX2) }

// HasAVX2 reports whether this build and host have the AVX2 bodies.
func HasAVX2() bool { return hasAVX2 }

// UseAVX2 reports whether the AVX2 bodies run now.
func UseAVX2() bool { return useAVX2.Load() }

// SetAVX2 turns the AVX2 bodies on (only where HasAVX2) or off for the
// whole process and returns the previous setting, for a reference run or
// an A/B benchmark to restore.
func SetAVX2(on bool) bool { return useAVX2.Swap(on && hasAVX2) }

// MulSub sets dst[i] -= src[i]·d for every i, the row update of the
// keyswitch (Algorithm 2, lines 4–6). It is arithmetic mod 2^32, so the
// eight-word AVX2 body and the Go loop (the reference, and the tail) are
// exactly equal. dst and src must have the same length.
func MulSub(dst, src []Torus32, d int32) {
	if len(src) != len(dst) {
		panic("torus: MulSub length mismatch")
	}
	if n := len(dst) &^ 7; n > 0 && UseAVX2() {
		mulSubAVX2(&dst[0], &src[0], n, d)
		dst, src = dst[n:], src[n:]
	}
	for i, w := range src {
		dst[i] -= Torus32(int32(w) * d)
	}
}
