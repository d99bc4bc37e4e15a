package torus

import "sync/atomic"

// SIMD is a level of vector bodies: which bodies MulSub here and every FFT
// loop run. Each level includes the one below it.
type SIMD int32

const (
	// Ref runs every loop's Go reference body.
	Ref SIMD = iota
	// AVX2 runs the AVX2 bodies.
	AVX2
	// AVX512 runs the FFT transforms' AVX-512 bodies where a transform's
	// shape has them, and the AVX2 bodies everywhere else.
	AVX512
)

// String names the level as KernelSet reports it: "ref", "avx2" or
// "avx512".
func (s SIMD) String() string {
	switch s {
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return "ref"
}

// cpuWords are the CPUID and XGETBV words the SIMD level depends on:
// CPUID leaf 0's EAX (the highest leaf), leaf 1's ECX, leaf 7's EBX and
// XCR0's low word. A word the CPU or OS does not report reads zero.
type cpuWords struct {
	maxLeaf, ecx1, ebx7, xcr0 uint32
}

// simdLevel decides the level from the CPUID and XGETBV words alone.
// AVX2 needs leaf 7 EBX bit 5 and an OS that saves the YMM state: OSXSAVE
// (leaf 1 ECX bit 27) and XCR0 bits 1–2 (SSE, AVX). AVX-512 needs AVX2,
// leaf 7 EBX bits 16 (F) and 17 (DQ), and an OS that also saves the opmask
// and ZMM state, XCR0 bits 5–7; a host whose OS does not gets AVX2.
func simdLevel(w cpuWords) SIMD {
	if w.maxLeaf < 7 || w.ecx1&(1<<27) == 0 || w.xcr0&0x06 != 0x06 || w.ebx7&(1<<5) == 0 {
		return Ref
	}
	if w.xcr0&0xe6 == 0xe6 && w.ebx7&(3<<16) == 3<<16 {
		return AVX512
	}
	return AVX2
}

// hostSIMD is what CPUID reported at start-up (amd64 builds without the
// `purego` tag; Ref everywhere else).
var hostSIMD = simdLevel(readCPU())

// level is the one SIMD switch in the tree: MulSub here and every FFT loop
// (through CurrentSIMD) run the bodies of the level it holds. It starts as
// hostSIMD; SetSIMD moves it.
var level atomic.Int32

func init() { level.Store(int32(hostSIMD)) }

// HostSIMD reports the highest level this build and host have.
func HostSIMD() SIMD { return hostSIMD }

// CurrentSIMD reports the level whose bodies run now.
func CurrentSIMD() SIMD { return SIMD(level.Load()) }

// SetSIMD selects the level for the whole process, clamped to HostSIMD,
// and returns the previous one, for a reference run or an A/B benchmark to
// restore.
func SetSIMD(s SIMD) SIMD { return SIMD(level.Swap(int32(min(max(s, Ref), hostSIMD)))) }

// MulSub sets dst[i] -= src[i]·d for every i, the row update of the
// keyswitch (Algorithm 2, lines 4–6). It is arithmetic mod 2^32, so the
// eight-word AVX2 body (at AVX2 and above) and the Go loop (the reference,
// and the tail) are exactly equal. dst and src must have the same length.
func MulSub(dst, src []Torus32, d int32) {
	if len(src) != len(dst) {
		panic("torus: MulSub length mismatch")
	}
	if n := len(dst) &^ 7; n > 0 && CurrentSIMD() >= AVX2 {
		mulSubAVX2(&dst[0], &src[0], n, d)
		dst, src = dst[n:], src[n:]
	}
	for i, w := range src {
		dst[i] -= Torus32(int32(w) * d)
	}
}
