package tfhe

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/torus"
)

// withKernel runs f under the named kernel set — the FFT kernels' and the
// keyswitch row update's — clamped to what the host has, and restores the
// previous set.
func withKernel(set string, f func()) {
	prev := fft.SetKernelSet(set)
	defer fft.SetKernelSet(prev)
	f()
}

func equalGLWE(a, b GLWECiphertext) bool {
	for c := range a.Polys {
		for i, v := range a.Polys[c].Coeffs {
			if v != b.Polys[c].Coeffs[i] {
				return false
			}
		}
	}
	return true
}

// zeroMask zeroes mask element i of a ciphertext under sk without moving
// its phase, so blind rotation skips step i.
func zeroMask(sk SecretKeys, ct *LWECiphertext, i int) {
	if sk.LWE.Bits[i] == 1 {
		ct.B -= ct.A[i]
	}
	ct.A[i] = 0
}

func TestBlindRotateTileMatchesOneAtATime(t *testing.T) {
	// The key-major tile loop must leave every accumulator bitwise equal to
	// rotating it alone, CMux step by CMux step, and count the same work,
	// for every tile size around a group of fft.TileGroup and the engine's
	// cap — including steps every item skips (a zero rotation amount),
	// steps every other item skips and one that item 1 alone skips, so a
	// group closes early or is regrouped. At the toy set with a multi-value
	// fan-out off the rotated tile; at set I with the gates' sign test
	// vector.
	const space, k = 4, 3
	fs := []func(int) int{func(m int) int { return m }, func(m int) int { return (m + 1) % space }, func(m int) int { return 3 - m }}
	t.Run("test", func(t *testing.T) {
		ev := NewEvaluator(testEK)
		offsets := ParamsTest.MultiLUTOffsets(space, k)
		testBlindRotateTile(t, testSK, testEK, ev.NewMultiLUTTestVector(space, fs),
			func(rng *rand.Rand, j int) LWECiphertext {
				return ev.ShiftForMultiLUT(testSK.LWE.Encrypt(rng, EncodePBSMessage(j%space, space), ParamsTest.LWEStdDev), space, k)
			},
			func(j int, acc GLWECiphertext) error {
				for o, out := range ev.ExtractMulti(acc, offsets) {
					if m := DecodePBSMessage(testSK.BigLWE.Phase(out), space); m != fs[o](j%space) {
						return fmt.Errorf("table %d decodes to %d, want %d", o, m, fs[o](j%space))
					}
				}
				return nil
			})
	})
	t.Run("I", func(t *testing.T) {
		sk, ek := setI()
		ev := NewEvaluator(ek)
		testBlindRotateTile(t, sk, ek, ev.SignTestVector(),
			func(rng *rand.Rand, j int) LWECiphertext { return sk.EncryptBool(rng, j%3 == 0) },
			func(j int, acc GLWECiphertext) error {
				if got := decryptBoolBig(sk, ev.Extract(acc)); got != (j%3 == 0) {
					return fmt.Errorf("sign bootstrap decrypts to %v", got)
				}
				return nil
			})
	})
}

// testBlindRotateTile rotates the first size of nine items as one tile, for
// each size from 1 to 9, against rotating each alone; check decodes item
// j's rotated accumulator. The tile's evaluator holds no key: the tile
// loop reads only the bootstrapping key it is passed.
func testBlindRotateTile(t *testing.T, sk SecretKeys, ek EvaluationKeys, tv GLWECiphertext, encrypt func(*rand.Rand, int) LWECiphertext, check func(int, GLWECiphertext) error) {
	rng := rand.New(rand.NewSource(211))
	tile, alone := NewEvaluator(EvaluationKeys{Params: ek.Params}), NewEvaluator(ek)
	const items = 9
	mss := make([]ModSwitched, items)
	want := make([]GLWECiphertext, items)
	wantOps := make([]OpCounters, items)
	for j := range mss {
		ct := encrypt(rng, j)
		zeroMask(sk, &ct, 5) // every item skips step 5
		if j%2 == 0 {
			zeroMask(sk, &ct, 17) // and every other one step 17
		}
		if j == 1 {
			zeroMask(sk, &ct, 29)
		}
		mss[j] = tile.ModSwitchLWE(ct)
		want[j] = alone.BlindRotateInit(tv, mss[j])
		alone.Counters.Reset()
		for i, aBar := range mss[j].A {
			alone.CMuxAt(want[j], i, aBar)
		}
		wantOps[j] = alone.Counters
		if err := check(j, want[j]); err != nil {
			t.Fatalf("item %d rotated alone: %v", j, err)
		}
	}
	for size := 1; size <= items; size++ {
		accs := make([]GLWECiphertext, size)
		var ops OpCounters
		for j := range accs {
			accs[j] = tile.BlindRotateInit(tv, mss[j])
			ops.Add(wantOps[j])
		}
		tile.Counters.Reset()
		tile.BlindRotateTile(ek.BSK, accs, mss[:size])
		for j := range accs {
			if !equalGLWE(accs[j], want[j]) {
				t.Fatalf("tile of %d: accumulator %d differs from rotating it alone", size, j)
			}
		}
		if tile.Counters != ops {
			t.Fatalf("tile of %d counts %+v, rotating each alone %+v", size, tile.Counters, ops)
		}
	}
}

// keySwitchRef is Algorithm 2 spelled per ciphertext, row by row off the
// slab: the oracle KeySwitchTile is compared with.
func keySwitchRef(ev *Evaluator, c LWECiphertext) LWECiphertext {
	p := ev.Params
	out := NewLWECiphertext(p.SmallN)
	out.B = c.B
	for j, a := range c.A {
		for l, d := range ev.ksGadget.Digits(a) {
			row := ev.Keys.KSK[(j*p.KSLevel+l)*(p.SmallN+1):][:p.SmallN+1]
			for i := range out.A {
				out.A[i] -= torus.Torus32(int32(row[i]) * d)
			}
			out.B -= torus.Torus32(int32(row[p.SmallN]) * d)
		}
	}
	return out
}

func TestKeySwitchTileMatchesPerCiphertext(t *testing.T) {
	// At the toy set (n = 64: whole vectors, no tail) and at set I (n = 500:
	// 62 vectors and a 4-word tail), with the row update's AVX2 body as
	// detected and forced off.
	skI, ekI := setI()
	for _, set := range []string{fft.KernelSet(), "ref"} {
		withKernel(set, func() {
			testKeySwitchTile(t, testSK, testEK)
			testKeySwitchTile(t, skI, ekI)
		})
	}
}

func testKeySwitchTile(t *testing.T, sk SecretKeys, ek EvaluationKeys) {
	rng := rand.New(rand.NewSource(223))
	ev := NewEvaluator(ek)
	p := ek.Params
	for _, b := range []int{1, 2, 3, 8} {
		cs := make([]LWECiphertext, b)
		want := make([]LWECiphertext, b)
		for i := range cs {
			cs[i] = sk.BigLWE.Encrypt(rng, torus.EncodeMessage(i, 8), 1e-8)
			if i == b-1 {
				// A zero mask decomposes to all-zero digits: every row is
				// skipped and the body passes through.
				cs[i] = NewLWECiphertext(p.ExtractedN())
				cs[i].B = torus.EncodeMessage(3, 8)
			}
			want[i] = keySwitchRef(ev, cs[i])
		}
		ev.KeySwitchTile(ek.KSK, cs)
		for i := range cs {
			if !EqualLWE(cs[i], want[i]) {
				t.Fatalf("n=%d B=%d: output %d differs from the per-ciphertext keyswitch", p.SmallN, b, i)
			}
		}
		if last := cs[b-1]; last.B != torus.EncodeMessage(3, 8) || last.N() != p.SmallN {
			t.Fatalf("n=%d B=%d: zero-digit input came out as dimension %d body %#x", p.SmallN, b, last.N(), last.B)
		}
	}
	// A smaller tile after a larger one reuses the scratch and must not
	// hand back anything of the earlier tile.
	c := sk.BigLWE.Encrypt(rng, torus.EncodeMessage(5, 8), 1e-8)
	if got := ev.KeySwitch(c); !EqualLWE(got, keySwitchRef(ev, c)) {
		t.Fatalf("n=%d: KeySwitch after a tile of 8 differs from the per-ciphertext keyswitch", p.SmallN)
	}
}

func TestExternalProductRotSubMatchesThreePasses(t *testing.T) {
	// out += g ⊡ (src·X^e − src) through the fused load, with out aliasing
	// src as in a CMux step, against rotate → subtract → ExternalProductAcc.
	src, g, gadget, proc, buf, _ := extProdFixture(43)
	for _, e := range []int{1, 7, ParamsTest.N - 1, ParamsTest.N, ParamsTest.N + 9, 2*ParamsTest.N - 1} {
		diff := NewGLWECiphertext(src.K(), src.PolyN())
		src.RotateTo(diff, e)
		diff.SubTo(src)
		want := src.Copy()
		ExternalProductAcc(want, diff, g, gadget, proc, buf, nil)
		got := src.Copy()
		ExternalProductRotSubAcc(got, e, g, gadget, proc, buf, nil)
		if !equalGLWE(got, want) {
			t.Fatalf("e=%d: fused CMux step differs from rotate, subtract, external product", e)
		}
	}
}

func TestValidateChecksKSKSlabLength(t *testing.T) {
	// The slab's length is all Validate can check of it, and all the
	// keyswitch loop relies on: a word short or long is refused before an
	// evaluator walks off the end of a row.
	ek := testEK
	if err := ek.Validate(); err != nil {
		t.Fatal(err)
	}
	words := len(ek.KSK)
	if want := ParamsTest.ExtractedN() * ParamsTest.KSLevel * (ParamsTest.SmallN + 1); words != want {
		t.Fatalf("generated KSK slab has %d words, want %d", words, want)
	}
	ek.KSK = testEK.KSK[:words-1]
	if ek.Validate() == nil {
		t.Error("a KSK slab one word short passes Validate")
	}
	ek.KSK = append(testEK.KSK[:words:words], 0)
	if ek.Validate() == nil {
		t.Error("a KSK slab one word long passes Validate")
	}
}

// setI generates the set-I key set once for the tile benchmarks.
var setI = sync.OnceValues(func() (SecretKeys, EvaluationKeys) {
	return GenerateKeys(rand.New(rand.NewSource(227)), ParamsI)
})

// BenchmarkBlindRotateTile reports the cost per ciphertext of the
// key-major rotate loop at set I: t=1 is the one-at-a-time loop, so the
// ratio to it is what one BSK pass per tile saves; t=2 is the tile the
// gate service's sessions run, t=4 one full tile-MAC group and t=8 two.
func BenchmarkBlindRotateTile(b *testing.B) {
	sk, ek := setI()
	ev := NewEvaluator(ek)
	rng := rand.New(rand.NewSource(229))
	tv := ev.SignTestVector()
	for _, size := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("t=%d", size), func(b *testing.B) {
			accs := make([]GLWECiphertext, size)
			mss := make([]ModSwitched, size)
			for j := range accs {
				mss[j] = ev.ModSwitchLWE(sk.EncryptBool(rng, j%2 == 0))
				accs[j] = ev.BlindRotateInit(tv, mss[j])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.BlindRotateTile(ek.BSK, accs, mss)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/ct")
		})
	}
}

// BenchmarkKeySwitchTile reports the cost per ciphertext of the key-major
// keyswitch at set I, with the row update's AVX2 body and with its Go loop;
// b=1 is the per-ciphertext loop.
func BenchmarkKeySwitchTile(b *testing.B) {
	sk, ek := setI()
	ev := NewEvaluator(ek)
	rng := rand.New(rand.NewSource(233))
	for _, size := range []int{1, 8} {
		bigs := make([]LWECiphertext, size)
		for j := range bigs {
			bigs[j] = sk.BigLWE.Encrypt(rng, boolMu(true), 1e-8)
		}
		for _, body := range []struct{ name, set string }{{"avx2", "avx2"}, {"go", "ref"}} {
			b.Run(fmt.Sprintf("b=%d/%s", size, body.name), func(b *testing.B) {
				if body.set == "avx2" && !fft.FastKernelAvailable() {
					b.Skip("no AVX2 body on this build and host")
				}
				cs := make([]LWECiphertext, size)
				b.ReportAllocs()
				b.ResetTimer()
				withKernel(body.set, func() {
					for i := 0; i < b.N; i++ {
						copy(cs, bigs)
						ev.KeySwitchTile(ek.KSK, cs)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/ct")
			})
		}
	}
}
