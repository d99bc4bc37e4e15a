package fft

import "repro/internal/torus"

// Kernel selection. Each loop of a CMux step — decompLoadFast,
// fwdStage4Fast, fwdStage2Fast, mulAccTileFast (the tile MAC, for k = 1),
// invFirstFast (size 2; it shares stage2AVX2 with fwdStage2Fast),
// invStage4Fast and invFoldFast — has two bodies:
//
//   - the reference (kernel_ref.go): plain bounds-checked Go, the
//     bitwise-pinned ground truth;
//   - the AVX2 body (kernel_amd64.s, two complex values per instruction,
//     excluded by the `purego` build tag).
//
// The dispatch rule (kernel_fast.go): a loop runs its AVX2 body when
// torus.UseAVX2 holds and its shape fits, and its reference body otherwise
// — on a host without AVX2, and here for what the lanes leave over: the
// q = 1 stage, the size-4 first inverse stage, a decompose run shorter
// than eight pairs, a MAC of other than two columns or of odd length. The
// transform loads (ForwardTorusTo, ForwardIntTo) and MulAcc, the one-row
// MAC outside the CMux step (key generation), have the reference body
// alone.
//
// Both bodies spell every floating-point expression with the same shape
// and evaluation order, so they produce bitwise-identical float64 results
// up to the sign of zeros — and therefore identical Torus32 outputs on
// every public operation. The assembly departs in one place, a commuted
// add in the complex multiply (bi·wr + br·wi for br·wi + bi·wr), which
// IEEE 754 leaves bitwise equal; and it uses no FMA instruction, which
// rounds once where the reference rounds twice (`make lint` refuses one:
// no-fma). The radix-4 and fold bodies read the same twiddle and untwist
// values as the reference, from copies stored in the order their lanes
// take them (laneTable in fft.go: (wr, wr) and (wi, wi) of two butterflies
// side by side), so each complex multiply takes its constants as memory
// operands and shuffles only the data. The reference reads the natural
// (re, im) tables, which stay the specification. The decompose load
// commutes nothing: it reads the twist's two planes (Processor.twist, the
// real parts and then the imaginary parts), forms re = a·tr − b·ti and
// im = a·ti + b·tr per plane, four pairs to a register, the reference's
// expression operand for operand, and interleaves the planes only to
// store them. The tile MAC holds its sums in registers instead of memory,
// so it must also sum in the same order: each accumulator starts at +0 (a
// −0 start would turn a −0 first product into −0 where Clear's +0 gives
// +0) and adds the rows in (j, l) order, one rounding per row, which is
// what makes it equal to Clear followed by one mulAccRef per row.
//
// The fold rounds as roundToTorus does, operation for operation, with
// VROUNDPD's truncation (there is no packed double→int64 convert below
// AVX-512DQ, and none is needed): t = trunc x, r = trunc((x − t)·2),
// s = t + r, each step exact. Then s mod 2^32: hi = (s + 1.5·2^84) −
// 1.5·2^84 is s to the nearest multiple of 2^32, lo = s − hi is exact with
// |lo| ≤ 2^31, and lo + 1.5·2^52 holds lo mod 2^32 in its low dword. Equal
// to roundToTorus for every finite |x| < 2^62, the range it documents.
//
// There is one switch, torus's: SetFastKernel moves it, so the
// reference-kernel conformance backend, which re-runs every op with it off
// and requires exact ciphertext equality, also runs torus.MulSub's Go loop.

// FastKernelAvailable reports whether this build and host have the AVX2
// bodies (an amd64 host with AVX2, built without the `purego` tag).
func FastKernelAvailable() bool { return torus.HasAVX2() }

// SetFastKernel turns the AVX2 bodies — these kernels' and torus.MulSub's
// — on (where FastKernelAvailable) or off for the whole process and
// returns the previous setting. Callers that need a deterministic
// reference run (the conformance harness, A/B benchmarks) should restore
// the previous value when done.
func SetFastKernel(on bool) bool { return torus.SetAVX2(on) }

// KernelSet names the kernels running right now: "avx2" when the AVX2
// bodies are in use, else "ref".
func KernelSet() string {
	if torus.UseAVX2() {
		return "avx2"
	}
	return "ref"
}
