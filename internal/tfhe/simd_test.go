package tfhe

import _ "unsafe" // for go:linkname

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
