package fft

import "repro/internal/torus"

// Kernel selection. Each transform of a CMux step — the fused
// decompose load with the forward stages (ForwardDecompose,
// ForwardDecomposeRotSub) and the inverse with its fold (InverseTo) — and
// the tile MAC (MulAccTile) has two bodies:
//
//   - the reference (kernel_ref.go): plain bounds-checked Go on
//     interleaved values, the bitwise-pinned ground truth;
//   - the AVX2 path (kernel_fast.go, bodies in kernel_amd64.s, excluded by
//     the `purego` build tag). Inside a transform its data is
//     block-planar: each run of four complex values is stored as their
//     four real parts, then their four imaginary parts, so a register
//     holds one part of four butterflies and a complex multiply is four
//     multiplies, a subtract and an add. The forward transform's last pass
//     and the inverse's first convert, so every FourierPoly — what the
//     MAC, the key and the wire hold — stays interleaved. The tile MAC
//     keeps two interleaved complex values per register.
//
// A transform takes the AVX2 path when torus.UseAVX2 holds and M ≥ 16,
// read once per call (Processor.planar), and the reference throughout
// otherwise; the MAC when torus.UseAVX2 holds and it has two columns and
// an even length. Inside the AVX2 path the q = 1 stage (M a power of four)
// runs its reference body between conversions. The transform loads
// (ForwardTorusTo, ForwardIntTo) and MulAcc, the one-row MAC outside the
// CMux step (key generation), have the reference body alone; the loads
// convert before the AVX2 stages.
//
// Both bodies spell every floating-point expression with the same operands
// and evaluation order, so they produce bitwise-identical float64 results
// — and therefore identical Torus32 outputs on every public operation.
// The block-planar bodies compute each complex multiply as the reference
// does, operand for operand, from block-planar twiddle and untwist tables
// (planarTable in fft.go: per four butterflies, four real parts then four
// imaginary parts) that hold the reference's natural (re, im) values,
// which stay the specification. They never form the reference's
// t3 = i·d = (−di, dr): t1 + t3 is (t1r − di, t1i + dr) and t1 − t3 is
// (t1r + di, t1i − dr), which IEEE 754 makes bitwise equal. The tile MAC
// departs in one place, a commuted add in its complex multiply
// (bi·wr + br·wi for br·wi + bi·wr), which IEEE 754 leaves bitwise equal.
// No body uses an FMA instruction, which rounds once where the reference
// rounds twice, and the reference writes every product float64(x*y), an
// explicit conversion that forbids the compiler to fuse it (gc would on
// arm64); `make lint` refuses either (no-fma). That pins each reference
// body to one result per input on every FPU. It does not make results
// equal across architectures: the twiddle, twist and untwist tables come
// from math.Cos and math.Sin. The decompose load reads the twist's two
// planes (Processor.twist, the real parts and then the imaginary parts),
// forms re = a·tr − b·ti and im = a·ti + b·tr per plane, four pairs to a
// register, and stores the two registers as one block-planar block. The
// tile MAC holds its sums in registers instead of memory, so it must also
// sum in the same order: each accumulator starts at +0 (a −0 start would
// turn a −0 first product into −0 where Clear's +0 gives +0) and adds the
// rows in (j, l) order, one rounding per row, which is what makes it
// equal to Clear followed by one mulAccRef per row.
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
