//go:build !purego

package torus

// cpuid and xgetbv are the tree's only feature-detection stubs
// (simd_amd64.s); golang.org/x/sys/cpu is not a dependency.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// mulSubAVX2 is MulSub over n words, n a positive multiple of eight.
//
//go:noescape
func mulSubAVX2(dst, src *Torus32, n int, d int32)

// readCPU reads the words simdLevel decides from. XCR0 is read only where
// OSXSAVE says XGETBV may run, and leaf 7 only where leaf 0 lists it.
func readCPU() cpuWords {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.ecx1&(1<<27) != 0 {
		w.xcr0, _ = xgetbv()
	}
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	return w
}
