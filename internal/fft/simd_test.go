package fft

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// torusUseAVX2 is internal/torus's feature switch, reached by name so the
// tree needs no exported setter for the tests' sake.
//
//go:linkname torusUseAVX2 repro/internal/torus.useAVX2
var torusUseAVX2 bool

// withAVX2 runs f with the AVX2 bodies as detected (on) or forced off, and
// restores the detected setting. It cannot turn on what the host lacks.
func withAVX2(on bool, f func()) {
	prev := torusUseAVX2
	defer func() { torusUseAVX2 = prev }()
	torusUseAVX2 = prev && on
	f()
}

// bothBodies runs f as a subtest with the fast kernels' bodies as detected
// and again with the assembly forced off, so the Go bodies cannot rot on
// an AVX2 host (elsewhere the two runs are the same).
func bothBodies(t *testing.T, f func(t *testing.T)) {
	t.Run("detected", f)
	withAVX2(false, func() { t.Run("go", f) })
}
