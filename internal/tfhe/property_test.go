package tfhe

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/poly"
	"repro/internal/torus"
)

// Property tests on the scheme's algebraic invariants (testing/quick).

func TestPropertyLWEAdditiveHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	key := NewLWEKey(rng, 200)
	space := 64
	f := func(m1, m2 uint8) bool {
		a := key.Encrypt(rng, torus.EncodeMessage(int(m1)%space, space), 1e-9)
		b := key.Encrypt(rng, torus.EncodeMessage(int(m2)%space, space), 1e-9)
		a.AddTo(b)
		return torus.DecodeMessage(key.Phase(a), space) == (int(m1)%space+int(m2)%space)%space
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertySampleExtractConsistent(t *testing.T) {
	// For random GLWE plaintexts, SampleExtract always yields an LWE that
	// decrypts (under the extracted key) to the constant coefficient.
	rng := rand.New(rand.NewSource(42))
	key := NewGLWEKey(rng, 1, 64)
	ext := key.ExtractLWEKey()
	f := func(c0 uint32) bool {
		mu := poly.New(64)
		mu.Coeffs[0] = c0
		ct := key.Encrypt(rng, mu, 0)
		lwe := SampleExtract(ct)
		return torus.Distance(ext.Phase(lwe), c0) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKeySwitchLinear(t *testing.T) {
	// KeySwitch commutes with homomorphic addition (up to noise):
	// KS(a+b) decrypts to the same message as KS(a)+KS(b).
	rng := rand.New(rand.NewSource(43))
	ev := NewEvaluator(testEK)
	space := 8
	f := func(m1, m2 uint8) bool {
		mm1, mm2 := int(m1)%space, int(m2)%space
		a := testSK.BigLWE.Encrypt(rng, torus.EncodeMessage(mm1, space), 1e-9)
		b := testSK.BigLWE.Encrypt(rng, torus.EncodeMessage(mm2, space), 1e-9)
		sum := a.Copy()
		sum.AddTo(b)
		lhs := ev.KeySwitch(sum)
		ra := ev.KeySwitch(a)
		rb := ev.KeySwitch(b)
		ra.AddTo(rb)
		want := (mm1 + mm2) % space
		return torus.DecodeMessage(testSK.LWE.Phase(lhs), space) == want &&
			torus.DecodeMessage(testSK.LWE.Phase(ra), space) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBootstrapIdempotentOnSign(t *testing.T) {
	// Bootstrapping a boolean twice yields the same boolean: PBS is a
	// noise-refreshing identity on the encoded message.
	rng := rand.New(rand.NewSource(44))
	ev := NewEvaluator(testEK)
	f := func(b bool) bool {
		ct := testSK.EncryptBool(rng, b)
		once := ev.signBootstrap(ct)
		twice := ev.signBootstrap(once)
		return testSK.DecryptBool(once) == b && testSK.DecryptBool(twice) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLUTComposition(t *testing.T) {
	// LUT(g) ∘ LUT(f) == LUT(g∘f) on the decrypted values.
	rng := rand.New(rand.NewSource(45))
	ev := NewEvaluator(testEK)
	space := 4
	fFn := func(x int) int { return (x + 1) % space }
	gFn := func(x int) int { return (x * 3) % space }
	f := func(m uint8) bool {
		mm := int(m) % space
		ct := testSK.LWE.Encrypt(rng, EncodePBSMessage(mm, space), ParamsTest.LWEStdDev)
		step1 := ev.EvalLUTKS(ct, space, []func(int) int{fFn})[0]
		step2 := ev.EvalLUTKS(step1, space, []func(int) int{gFn})[0]
		return DecodePBSMessage(testSK.LWE.Phase(step2), space) == gFn(fFn(mm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
