package tfhe

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/torus"
)

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

// zeroMask zeroes mask element i of a test-key ciphertext without moving
// its phase, so blind rotation skips step i.
func zeroMask(ct LWECiphertext, i int) {
	if testSK.LWE.Bits[i] == 1 {
		ct.B -= ct.A[i]
	}
	ct.A[i] = 0
}

func TestBlindRotateTileMatchesOneAtATime(t *testing.T) {
	// The key-major tile loop must leave every accumulator bitwise equal to
	// rotating it alone, CMux step by CMux step, for every tile size
	// around the cap — including items that skip the same step (a zero
	// rotation amount) and a multi-value fan-out off the rotated tile.
	rng := rand.New(rand.NewSource(211))
	const space, k = 4, 3
	fs := []func(int) int{func(m int) int { return m }, func(m int) int { return (m + 1) % space }, func(m int) int { return 3 - m }}
	tile, alone := NewEvaluator(testEK), NewEvaluator(testEK)
	tv := tile.NewMultiLUTTestVector(space, fs)
	offsets := ParamsTest.MultiLUTOffsets(space, k)
	for size := 1; size <= 9; size++ {
		accs := make([]GLWECiphertext, size)
		mss := make([]ModSwitched, size)
		want := make([]GLWECiphertext, size)
		for j := range accs {
			ct := tile.ShiftForMultiLUT(testSK.LWE.Encrypt(rng, EncodePBSMessage(j%space, space), ParamsTest.LWEStdDev), space, k)
			zeroMask(ct, 5) // every item skips step 5
			if j%2 == 0 {
				zeroMask(ct, 17) // and every other one step 17
			}
			mss[j] = tile.ModSwitchLWE(ct)
			accs[j] = tile.BlindRotateInit(tv, mss[j])
			want[j] = alone.BlindRotateInit(tv, mss[j])
			for i, aBar := range mss[j].A {
				alone.CMuxAt(want[j], i, aBar)
			}
		}
		tile.BlindRotateTile(accs, mss)
		for j := range accs {
			if !equalGLWE(accs[j], want[j]) {
				t.Fatalf("tile of %d: accumulator %d differs from rotating it alone", size, j)
			}
			got, ref := tile.ExtractMulti(accs[j], offsets), alone.ExtractMulti(want[j], offsets)
			for o := range got {
				if !EqualLWE(got[o], ref[o]) {
					t.Fatalf("tile of %d: item %d output %d differs", size, j, o)
				}
				if m := DecodePBSMessage(testSK.BigLWE.Phase(got[o]), space); m != fs[o](j%space) {
					t.Fatalf("tile of %d: item %d table %d decodes to %d, want %d", size, j, o, m, fs[o](j%space))
				}
			}
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
	for _, on := range []bool{true, false} {
		withAVX2(on, func() {
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
		ev.KeySwitchTile(cs)
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
		ExternalProductRotSubAcc(got, got, e, g, gadget, proc, buf, nil)
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
// ratio to it is what one BSK pass per tile saves.
func BenchmarkBlindRotateTile(b *testing.B) {
	sk, ek := setI()
	ev := NewEvaluator(ek)
	rng := rand.New(rand.NewSource(229))
	tv := ev.SignTestVector()
	for _, size := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("t=%d", size), func(b *testing.B) {
			accs := make([]GLWECiphertext, size)
			mss := make([]ModSwitched, size)
			for j := range accs {
				mss[j] = ev.ModSwitchLWE(sk.EncryptBool(rng, j%2 == 0))
				accs[j] = ev.BlindRotateInit(tv, mss[j])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.BlindRotateTile(accs, mss)
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
		for _, body := range []string{"avx2", "go"} {
			b.Run(fmt.Sprintf("b=%d/%s", size, body), func(b *testing.B) {
				if body == "avx2" && !torus.UseAVX2() {
					b.Skip("no AVX2 body on this build and host")
				}
				cs := make([]LWECiphertext, size)
				b.ReportAllocs()
				b.ResetTimer()
				withAVX2(body == "avx2", func() {
					for i := 0; i < b.N; i++ {
						copy(cs, bigs)
						ev.KeySwitchTile(cs)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/ct")
			})
		}
	}
}
