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

// detectAVX2 reports AVX2 (leaf 7 EBX bit 5) on a CPU whose OS saves the
// YMM state (OSXSAVE, leaf 1 ECX bit 27, and XCR0 bits 1–2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&(1<<27) == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	return xcr0&6 == 6 && ebx7&(1<<5) != 0
}
