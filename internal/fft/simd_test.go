package fft

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/torus"
)

// eachKernel runs f as a subtest under each kernel set: as detected, then
// at "avx2" with the AVX-512 bodies off, so the AVX2 bodies every other
// amd64 host runs stay exercised on an AVX-512 host (it is skipped
// elsewhere, where it would repeat the detected run or the reference), and
// with every SIMD body off, so the reference route a host without AVX2
// takes is exercised too. The last subtest keeps the name "go" from when a
// portable Go body ran there, so the test ids stay stable.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Run("detected", f)
	t.Run("avx2", func(t *testing.T) {
		if torus.HostSIMD() != torus.AVX512 {
			t.Skipf("the detected set is %s", torus.HostSIMD())
		}
		withKernel("avx2", func() { f(t) })
	})
	withKernel("ref", func() { t.Run("go", f) })
}

// withKernel runs f under the named kernel set, clamped to what the host
// has, and restores the previous set.
func withKernel(set string, f func()) {
	prev := SetKernelSet(set)
	defer SetKernelSet(prev)
	f()
}

// hostKernelSets is kernelSets up to the host's: the sets a test can run.
func hostKernelSets() []string { return kernelSets[:torus.HostSIMD()+1] }

// planarBodies are the block-planar bodies of one block width, for the
// tests and benchmarks that call them directly.
type planarBodies struct {
	fwdStage4, invStage4 func(buf *complex128, n, s int, tw *float64)
	fwdTail              func(buf *complex128, n int, tw *float64)
	invHead              func(dst, src *complex128, n int, tw *float64)
	invFold              func(dst *uint32, src *complex128, q int, tw, untwist *float64)
	decompLoad           func(dp *unsafe.Pointer, lb int, twr, twi *float64, pa, pb, sa, sb *uint32, lo, cnt int, na, nb, sub, rhalf, mask, rshift, bl uint32)
}

// bodiesOf maps a block width to its bodies.
var bodiesOf = map[int]planarBodies{
	4: {fwdStage4AVX2, invStage4AVX2, fwdTailAVX2, invHeadAVX2, invFoldAVX2, decompLoadAVX2},
	8: {fwdStage4AVX512, invStage4AVX512, fwdTailAVX512, invHeadAVX512, invFoldAVX512, decompLoadAVX512},
}

// tileOperands returns members groups of cols·lb digits and cols
// accumulators, all of length n, and a key slab of cols·lb rows × cols
// polynomials, over kernelOperands; the accumulators start as NaN so an
// output the MAC does not write shows. Member zero's digits are all zero
// when zeroMember is set.
func tileOperands(rng *rand.Rand, members, lb, cols, n int, zeroMember bool) (accs, digs [][]FourierPoly, key FourierPoly) {
	poly := func() FourierPoly {
		fp := make(FourierPoly, n)
		kernelOperands(rng, fp)
		return fp
	}
	key = make(FourierPoly, cols*lb*cols*n)
	kernelOperands(rng, key)
	for t := 0; t < members; t++ {
		var acc, dig []FourierPoly
		for c := 0; c < cols; c++ {
			fp := make(FourierPoly, n)
			for i := range fp {
				fp[i] = complex(math.NaN(), math.NaN())
			}
			acc = append(acc, fp)
		}
		for r := 0; r < cols*lb; r++ {
			d := poly()
			if zeroMember && t == 0 {
				d = make(FourierPoly, n)
			}
			dig = append(dig, d)
		}
		accs, digs = append(accs, acc), append(digs, dig)
	}
	return accs, digs, key
}

func TestMulAccTileMatchesReferenceBitwise(t *testing.T) {
	// The tile MAC's dispatch against mulAccTileRef, and MulAccTile under
	// both kernel sets: groups of one to four and the split of five and
	// eight into groups, lb = 2 and 3 (sets I and III), a member whose
	// digits are all zero, operands with both zeros, even, odd and short
	// lengths, and three columns — odd lengths and three columns are shapes
	// the AVX2 body (two columns, the paper's k = 1) hands the reference.
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for _, cols := range []int{2, 3} {
			for _, lb := range []int{2, 3} {
				for _, n := range []int{1, 2, 3, 8, 512} {
					for _, members := range []int{1, 2, 3, 4, 5, 8} {
						accs, digs, key := tileOperands(rng, members, lb, cols, n, members%2 == 1)
						want, _, _ := tileOperands(rng, members, lb, cols, n, false)
						mulAccTileFast(accs, digs, key)
						mulAccTileRef(want, digs, key)
						for m := range accs {
							for c := range accs[m] {
								if i := sameBits(accs[m][c], want[m][c]); i >= 0 {
									t.Fatalf("cols=%d lb=%d n=%d members=%d: member %d column %d slot %d is %v, reference %v", cols, lb, n, members, m, c, i, accs[m][c][i], want[m][c][i])
								}
							}
						}
						for _, set := range hostKernelSets() {
							withKernel(set, func() { MulAccTile(accs, digs, key) })
							for m := range accs {
								for c := range accs[m] {
									if i := sameBits(accs[m][c], want[m][c]); i >= 0 {
										t.Fatalf("MulAccTile kernel=%s cols=%d lb=%d n=%d members=%d: member %d column %d slot %d differs", set, cols, lb, n, members, m, c, i)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

func TestMulAccTileShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	accs, digs, key := tileOperands(rng, 2, 2, 2, 8, false)
	MulAccTile(nil, nil, key) // an empty group is a no-op
	expectPanic(t, "digit sets short", func() { MulAccTile(accs, digs[:1], key) })
	expectPanic(t, "digits short", func() { MulAccTile(accs, [][]FourierPoly{digs[0], digs[1][:3]}, key) })
	expectPanic(t, "accumulators short", func() { MulAccTile([][]FourierPoly{accs[0], accs[1][:1]}, digs, key) })
	expectPanic(t, "no key", func() { MulAccTile(accs, digs, nil) })
	expectPanic(t, "key length < rows·cols·n", func() { MulAccTile(accs, digs, key[:len(key)-1]) })
	expectPanic(t, "key length > rows·cols·n", func() { MulAccTile(accs, digs, append(key, 0)) })
	expectPanic(t, "no digits", func() { MulAccTile(accs, [][]FourierPoly{nil, nil}, key) })
	expectPanic(t, "digit short", func() {
		MulAccTile(accs, [][]FourierPoly{digs[0], {digs[1][0], digs[1][1], digs[1][2], digs[1][3][:7]}}, key)
	})
}
