package fft

import (
	"math"
	"math/rand"
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
	// The tile MAC's AVX2 body (two columns, the paper's k = 1) and its Go
	// body against mulAccTileRef, and MulAccTile under both kernel sets:
	// groups of one to four and the split of five and eight into groups,
	// lb = 2 and 3 (sets I and III), a member whose digits are all zero,
	// operands with both zeros, even, odd and short lengths, and three
	// columns, which only the Go body takes.
	if !FastKernelAvailable() {
		t.Skip("purego build: no fast kernel")
	}
	bothBodies(t, func(t *testing.T) {
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
						for _, fast := range []bool{true, false} {
							withKernel(fast, func() { MulAccTile(accs, digs, key) })
							for m := range accs {
								for c := range accs[m] {
									if i := sameBits(accs[m][c], want[m][c]); i >= 0 {
										t.Fatalf("MulAccTile fast=%v cols=%d lb=%d n=%d members=%d: member %d column %d slot %d differs", fast, cols, lb, n, members, m, c, i)
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
