package fft

import "repro/internal/torus"

// Kernel selection. Each transform of a CMux step — the fused
// decompose load with the forward stages (ForwardDecompose,
// ForwardDecomposeRotSub) and the inverse with its fold (InverseTo) — has
// three bodies, and the tile MAC (MulAccTile) two:
//
//   - the reference (kernel_ref.go): plain bounds-checked Go on
//     interleaved values, the bitwise-pinned ground truth;
//   - the AVX2 path (kernel_fast.go, bodies in kernel_amd64.s, excluded by
//     the `purego` build tag). Inside a transform its data is
//     block-planar: each block of four complex values is stored as their
//     four real parts, then their four imaginary parts, so a register
//     holds one part of four butterflies and a complex multiply is four
//     multiplies, a subtract and an add. The forward transform's last pass
//     and the inverse's first convert, so every FourierPoly — what the
//     MAC, the key and the wire hold — stays interleaved. The tile MAC
//     keeps two interleaved complex values per register;
//   - the AVX-512 path (the same glue, bodies in kernel_avx512_amd64.s):
//     the transforms' six passes — the decompose load, the radix-4 stages,
//     the forward tail, the inverse head and stages, and the fold — eight
//     lanes wide, on blocks of eight values, 128 bytes, one ZMM register
//     per part. The tile MAC and torus.MulSub keep their AVX2 bodies.
//
// The kernel set — ref, avx2 or avx512, torus.CurrentSIMD — is read once
// per transform call (Processor.width), so a switch while it runs cannot
// mix two layouts in one buffer. At avx512 a transform takes the AVX-512
// path where M = 2·4^j ≥ 32 (Processor.eight: the test set and sets I, II
// and IV), where every radix-4 stage but the q = 2 one has q ≥ 8 and the
// q = 2 stage and the radix-2 pass end the transform, and the AVX2 path
// elsewhere (set III's M = 4^5); at avx2 it takes the AVX2 path where
// M ≥ 16; below that, and at ref, the reference throughout. The MAC takes
// its AVX2 body at avx2 and above when it has two columns and an even
// length. Inside the AVX2 path the q = 1 stage (M a power of four) runs its
// reference body between conversions. The transform loads (ForwardTorusTo,
// ForwardIntTo) and MulAcc, the one-row MAC outside the CMux step (key
// generation), have the reference body alone; the loads convert before the
// SIMD stages.
//
// Every body spells every floating-point expression with the same operands
// and evaluation order, so they produce bitwise-identical float64 results
// — and therefore identical Torus32 outputs on every public operation.
// The block-planar bodies compute each complex multiply as the reference
// does, operand for operand, from block-planar twiddle and untwist tables
// (planarTable in fft.go: per block of four or eight butterflies, their
// real parts then their imaginary parts) that hold the reference's natural
// (re, im) values, which stay the specification. They never form the
// reference's t3 = i·d = (−di, dr): t1 + t3 is (t1r − di, t1i + dr) and
// t1 − t3 is (t1r + di, t1i − dr), which IEEE 754 makes bitwise equal. The
// tile MAC departs in one place, a commuted add in its complex multiply
// (bi·wr + br·wi for br·wi + bi·wr), which IEEE 754 leaves bitwise equal.
// No body uses an FMA instruction, which rounds once where the reference
// rounds twice, and the reference writes every product float64(x*y), an
// explicit conversion that forbids the compiler to fuse it (gc would on
// arm64); `make lint` refuses either (no-fma). That pins each reference
// body to one result per input on every FPU. It does not make results
// equal across architectures: the twiddle, twist and untwist tables come
// from math.Cos and math.Sin. The decompose load reads the twist's two
// planes (Processor.twist, the real parts and then the imaginary parts),
// forms re = a·tr − b·ti and im = a·ti + b·tr per plane, a block's pairs
// to a register, and stores the two registers as one block-planar block.
// The tile MAC holds its sums in registers instead of memory, so it must
// also sum in the same order: each accumulator starts at +0 (a −0 start
// would turn a −0 first product into −0 where Clear's +0 gives +0) and adds
// the rows in (j, l) order, one rounding per row, which is what makes it
// equal to Clear followed by one mulAccRef per row.
//
// The folds round as roundToTorus does, operation for operation. The
// AVX-512 fold has AVX-512DQ's packed double↔int64 converts, so it runs
// roundToTorus's own instructions: t = int64(x) (VCVTTPD2QQ truncates, as
// CVTTSD2SQ does, and both give 2^63's bit pattern out of range),
// f = x − float64(t), t + int64(f + f), and the low dwords (VPMOVQD): equal
// for every input. The AVX2 fold has no such convert and needs none: with
// VROUNDPD's truncation, t = trunc x, r = trunc((x − t)·2), s = t + r, each
// step exact. Then s mod 2^32: hi = (s + 1.5·2^84) − 1.5·2^84 is s to the
// nearest multiple of 2^32, lo = s − hi is exact with |lo| ≤ 2^31, and
// lo + 1.5·2^52 holds lo mod 2^32 in its low dword. Equal to roundToTorus
// for every finite |x| < 2^62, the range it documents.
//
// There is one switch, torus's: SetKernelSet moves it, so the
// reference-kernel conformance backend, which re-runs every op at ref and
// requires exact ciphertext equality, also runs torus.MulSub's Go loop, and
// the avx2-kernel backend, which re-runs every op at avx2, keeps the AVX2
// transform bodies checked on an AVX-512 host.

// FastKernelAvailable reports whether this build and host have the AVX2
// bodies (an amd64 host with AVX2, built without the `purego` tag).
func FastKernelAvailable() bool { return torus.HostSIMD() >= torus.AVX2 }

// kernelSets names the kernel sets from the slowest: "ref", "avx2",
// "avx512".
var kernelSets = []string{torus.Ref.String(), torus.AVX2.String(), torus.AVX512.String()}

// SetKernelSet selects the kernels by name — "avx512", "avx2" or "ref" —
// for the whole process, these kernels' and torus.MulSub's, clamped to
// what this build and host have, and returns the previous set's name.
// Callers that need a deterministic reference run (the conformance
// harness, A/B benchmarks) should restore it when done. Any other name
// panics.
func SetKernelSet(name string) string {
	for s, n := range kernelSets {
		if n == name {
			return torus.SetSIMD(torus.SIMD(s)).String()
		}
	}
	panic("fft: unknown kernel set " + name)
}

// KernelSet names the kernels running right now: "avx512", "avx2" or
// "ref".
func KernelSet() string { return torus.CurrentSIMD().String() }
