package fft

import (
	"sync/atomic"

	"repro/internal/torus"
)

// Kernel selection. Two interchangeable kernel sets implement the butterfly
// stages, the twist/fold load-store passes, and the tile MAC:
//
//   - the reference kernels (kernel_ref.go): plain bounds-checked Go, the
//     bitwise-pinned ground truth;
//   - the fast kernels (kernel_fast.go, excluded by the `purego` build tag):
//     the same arithmetic with unsafe pointer indexing and unrolled loops.
//     Every loop of a CMux step hands its work to an AVX2 body
//     (kernel_amd64.s, two complex values per instruction) when
//     torus.UseAVX2 reports one — seven loops: decompLoadFast,
//     fwdStage4Fast, fwdStage2Fast, mulAccTileFast (the tile MAC, for
//     k = 1), invFirstFast (size 2; it shares stage2AVX2 with
//     fwdStage2Fast), invStage4Fast and invFoldFast. Their Go bodies are
//     the fast path on every other host, and here for what the lanes
//     leave over: the q = 1 stage, the size-4 first inverse stage, a
//     decompose run's last pairs, an odd MAC tail. MulAcc, the one-row MAC
//     outside the CMux step (key generation), runs the reference alone.
//
// Every body spells every floating-point expression with the same shape and
// evaluation order, so they produce bitwise-identical float64 results up to
// the sign of zeros — and therefore identical Torus32 outputs on every
// public operation. The assembly departs in one place, a commuted add in
// the complex multiply (bi·wr + br·wi for br·wi + bi·wr), which IEEE 754
// leaves bitwise equal; and it uses no FMA instruction, which rounds once
// where the reference rounds twice (`make lint` refuses one: no-fma). The
// radix-4 and fold bodies read the same twiddle and untwist values as the
// Go bodies, from copies stored in the order their lanes take them
// (laneTable in fft.go: (wr, wr) and (wi, wi) of two butterflies side by
// side), so each complex multiply takes its constants as memory operands
// and shuffles only the data. The reference and Go bodies read the natural
// (re, im) tables, which stay the specification. The
// decompose load's twisted store commutes nothing: VADDSUBPD of
// (a, a)·(tr, ti) and (b, b)·(ti, tr) is (a·tr − b·ti, a·ti + b·tr). The
// tile MAC holds its sums in registers instead of memory, so it must also
// sum in the same order: each accumulator starts at +0 (a −0 start would
// turn a −0 first product into −0 where Clear's +0 gives +0) and adds the
// rows in (j, l) order, one rounding per row, which is what makes it equal
// to Clear followed by one mulAccRef per row.
//
// The fold rounds as roundToTorus does, operation for operation, with
// VROUNDPD's truncation (there is no packed double→int64 convert below
// AVX-512DQ, and none is needed): t = trunc x, r = trunc((x − t)·2),
// s = t + r, each step exact. Then s mod 2^32: hi = (s + 1.5·2^84) −
// 1.5·2^84 is s to the nearest multiple of 2^32, lo = s − hi is exact with
// |lo| ≤ 2^31, and lo + 1.5·2^52 holds lo mod 2^32 in its low dword. Equal
// to roundToTorus for every finite |x| < 2^62, the range it documents.
//
// The reference-kernel conformance backend re-runs every op with the fast
// path disabled and requires exact ciphertext equality.
//
// fastEnabled is a process-wide runtime switch so one binary can benchmark
// fast against reference in the same run; it defaults to the fast path when
// the build includes it.
var fastEnabled atomic.Bool

func init() { fastEnabled.Store(fastKernelAvailable) }

// FastKernelAvailable reports whether this binary was built with the
// fast kernels (i.e. without the `purego` build tag).
func FastKernelAvailable() bool { return fastKernelAvailable }

// SetFastKernel selects the kernel set used by all processors in the
// process and returns the previous setting. Enabling has no effect in a
// `purego` build. Callers that need a deterministic reference run (the
// conformance harness, A/B benchmarks) should restore the previous value
// when done.
func SetFastKernel(on bool) bool {
	prev := fastEnabled.Load()
	fastEnabled.Store(on && fastKernelAvailable)
	return prev
}

// KernelSet names the kernels the processors run right now: "ref", or for
// the fast set "avx2" when its assembly bodies are in use (an amd64 host
// with AVX2) and "go" when only its portable bodies are.
func KernelSet() string {
	switch {
	case !fastKernelOn():
		return "ref"
	case torus.UseAVX2():
		return "avx2"
	}
	return "go"
}

// fastKernelOn is the per-call dispatch check (a single atomic load).
func fastKernelOn() bool { return fastEnabled.Load() }
