package tfhe

import (
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/poly"
	"repro/internal/torus"
)

// testKeys generates a key set for ParamsTest once per test binary.
var (
	testSK SecretKeys
	testEK EvaluationKeys
)

func init() {
	rng := rand.New(rand.NewSource(2023))
	testSK, testEK = GenerateKeys(rng, ParamsTest)
}

func TestParamsValidate(t *testing.T) {
	for _, p := range append(StandardSets(), ParamsTest) {
		if err := p.Validate(); err != nil {
			t.Errorf("set %s invalid: %v", p.Name, err)
		}
	}
	bad := ParamsI
	bad.N = 1000
	if bad.Validate() == nil {
		t.Error("non-power-of-two N should fail validation")
	}
	bad = ParamsI
	bad.PBSBaseLog = 20
	bad.PBSLevel = 2
	if bad.Validate() == nil {
		t.Error("gadget wider than 32 bits should fail validation")
	}
}

func TestParamsByName(t *testing.T) {
	p, err := ParamsByName("III")
	if err != nil || p.N != 2048 {
		t.Errorf("ParamsByName(III) = %+v, %v", p, err)
	}
	if _, err := ParamsByName("nope"); err == nil {
		t.Error("expected error for unknown set")
	}
}

func TestLWEEncryptDecrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := NewLWEKey(rng, 300)
	space := 8
	for m := 0; m < space; m++ {
		c := key.Encrypt(rng, torus.EncodeMessage(m, space), 1e-7)
		if got := key.DecryptMessage(c, space); got != m {
			t.Fatalf("decrypt(encrypt(%d)) = %d", m, got)
		}
	}
}

func TestLWEHomomorphicAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	key := NewLWEKey(rng, 300)
	space := 16
	a := key.Encrypt(rng, torus.EncodeMessage(3, space), 1e-8)
	b := key.Encrypt(rng, torus.EncodeMessage(5, space), 1e-8)
	a.AddTo(b)
	if got := key.DecryptMessage(a, space); got != 8 {
		t.Fatalf("3+5 = %d", got)
	}
	a.SubTo(b)
	if got := key.DecryptMessage(a, space); got != 3 {
		t.Fatalf("8-5 = %d", got)
	}
}

func TestLWEScalarMulAndNegate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := NewLWEKey(rng, 300)
	space := 16
	c := key.Encrypt(rng, torus.EncodeMessage(3, space), 1e-9)
	c.MulScalar(4)
	if got := key.DecryptMessage(c, space); got != 12 {
		t.Fatalf("3*4 = %d", got)
	}
	c.Negate()
	if got := key.DecryptMessage(c, space); got != 4 {
		t.Fatalf("-12 mod 16 = %d", got)
	}
}

func TestGLWEEncryptDecrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	key := NewGLWEKey(rng, 1, 256)
	mu := poly.New(256)
	for i := range mu.Coeffs {
		mu.Coeffs[i] = torus.EncodeMessage(i%8, 8)
	}
	c := key.Encrypt(rng, mu, 1e-9)
	phase := key.Phase(c)
	if d := poly.MaxDistance(phase, mu); d > 1e-4 {
		t.Fatalf("GLWE phase error %v", d)
	}
}

func TestGLWERotateHomomorphic(t *testing.T) {
	// Rotating the ciphertext rotates the plaintext.
	rng := rand.New(rand.NewSource(5))
	key := NewGLWEKey(rng, 1, 128)
	mu := poly.New(128)
	mu.Coeffs[0] = torus.FromFloat(0.25)
	c := key.Encrypt(rng, mu, 1e-9)
	rot := NewGLWECiphertext(1, 128)
	c.RotateTo(rot, 5)
	phase := key.Phase(rot)
	want := poly.MulByMonomial(mu, 5)
	if d := poly.MaxDistance(phase, want); d > 1e-4 {
		t.Fatalf("rotation phase error %v", d)
	}
}

func TestSampleExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	key := NewGLWEKey(rng, 1, 128)
	mu := poly.New(128)
	mu.Coeffs[0] = torus.FromFloat(0.3)
	c := key.Encrypt(rng, mu, 1e-9)
	lwe := SampleExtract(c)
	ext := key.ExtractLWEKey()
	got := torus.ToFloat(ext.Phase(lwe))
	if got < 0.299 || got > 0.301 {
		t.Fatalf("extracted phase %v, want 0.3", got)
	}
}

func TestSampleExtractDimension(t *testing.T) {
	c := NewGLWECiphertext(2, 64)
	if got := SampleExtract(c).N(); got != 128 {
		t.Fatalf("extracted dimension %d, want 128", got)
	}
}

func TestExternalProductSelectsBit(t *testing.T) {
	// GGSW(0) ⊡ d ≈ 0, GGSW(1) ⊡ d ≈ d.
	p := ParamsTest
	rng := rand.New(rand.NewSource(7))
	key := NewGLWEKey(rng, p.K, p.N)
	proc := fft.NewProcessor(p.N)
	gadget := poly.NewDecomposer(p.PBSBaseLog, p.PBSLevel)
	buf := newExternalProductBuffers(p.K, p.N, p.PBSLevel, proc)

	mu := poly.New(p.N)
	mu.Coeffs[3] = torus.FromFloat(0.25)
	d := key.Encrypt(rng, mu, 1e-9)

	for _, bit := range []int32{0, 1} {
		g := EncryptGGSW(rng, key, bit, gadget, p.GLWEStdDev, proc)
		out := NewGLWECiphertext(p.K, p.N)
		ExternalProductAcc(out, d, g, gadget, proc, buf, nil)
		phase := key.Phase(out)
		want := poly.New(p.N)
		if bit == 1 {
			want = mu
		}
		if dd := poly.MaxDistance(phase, want); dd > 1e-3 {
			t.Fatalf("bit=%d: external product error %v", bit, dd)
		}
	}
}

func TestCMuxSelects(t *testing.T) {
	p := ParamsTest
	rng := rand.New(rand.NewSource(8))
	key := NewGLWEKey(rng, p.K, p.N)
	proc := fft.NewProcessor(p.N)
	gadget := poly.NewDecomposer(p.PBSBaseLog, p.PBSLevel)
	buf := newExternalProductBuffers(p.K, p.N, p.PBSLevel, proc)

	mu := poly.New(p.N)
	mu.Coeffs[0] = torus.FromFloat(0.25)

	for _, bit := range []int32{0, 1} {
		tv := key.Encrypt(rng, mu, 1e-9)
		g := EncryptGGSW(rng, key, bit, gadget, p.GLWEStdDev, proc)
		ExternalProductRotSubAcc(tv, tv, 7, g, gadget, proc, buf, nil)
		phase := key.Phase(tv)
		want := mu
		if bit == 1 {
			want = poly.MulByMonomial(mu, 7)
		}
		if dd := poly.MaxDistance(phase, want); dd > 1e-3 {
			t.Fatalf("bit=%d: CMux error %v", bit, dd)
		}
	}
}

func TestKeySwitchPreservesMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ev := NewEvaluator(testEK)
	space := 8
	for m := 0; m < space; m++ {
		c := testSK.BigLWE.Encrypt(rng, torus.EncodeMessage(m, space), 1e-8)
		out := ev.KeySwitch(c)
		if got := testSK.LWE.DecryptMessage(out, space); got != m {
			t.Fatalf("keyswitch(%d) decrypted to %d", m, got)
		}
	}
}

func TestBlindRotateSign(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ev := NewEvaluator(testEK)
	for _, b := range []bool{true, false} {
		c := testSK.EncryptBool(rng, b)
		big := ev.signBootstrapBig(c)
		if got := testSK.DecryptBoolBig(big); got != b {
			t.Fatalf("sign bootstrap of %v decrypted to %v", b, got)
		}
	}
}

func TestGateNAND(t *testing.T) { testGate(t, "NAND", func(a, b bool) bool { return !(a && b) }) }
func TestGateAND(t *testing.T)  { testGate(t, "AND", func(a, b bool) bool { return a && b }) }
func TestGateOR(t *testing.T)   { testGate(t, "OR", func(a, b bool) bool { return a || b }) }
func TestGateNOR(t *testing.T)  { testGate(t, "NOR", func(a, b bool) bool { return !(a || b) }) }
func TestGateXOR(t *testing.T)  { testGate(t, "XOR", func(a, b bool) bool { return a != b }) }
func TestGateXNOR(t *testing.T) { testGate(t, "XNOR", func(a, b bool) bool { return a == b }) }

func testGate(t *testing.T, name string, truth func(a, b bool) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ev := NewEvaluator(testEK)
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			ca := testSK.EncryptBool(rng, a)
			cb := testSK.EncryptBool(rng, b)
			var out LWECiphertext
			switch name {
			case "NAND":
				out = ev.NAND(ca, cb)
			case "AND":
				out = ev.AND(ca, cb)
			case "OR":
				out = ev.OR(ca, cb)
			case "NOR":
				out = ev.NOR(ca, cb)
			case "XOR":
				out = ev.XOR(ca, cb)
			case "XNOR":
				out = ev.XNOR(ca, cb)
			}
			if got := testSK.DecryptBool(out); got != truth(a, b) {
				t.Fatalf("%s(%v,%v) = %v", name, a, b, got)
			}
		}
	}
}

func TestGateNOT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ev := NewEvaluator(testEK)
	for _, a := range []bool{false, true} {
		c := testSK.EncryptBool(rng, a)
		if got := testSK.DecryptBool(ev.NOT(c)); got != !a {
			t.Fatalf("NOT(%v) = %v", a, got)
		}
	}
}

func TestGateMUX(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ev := NewEvaluator(testEK)
	for _, c := range []bool{false, true} {
		for _, a := range []bool{false, true} {
			for _, b := range []bool{false, true} {
				cc := testSK.EncryptBool(rng, c)
				ca := testSK.EncryptBool(rng, a)
				cb := testSK.EncryptBool(rng, b)
				out := ev.MUX(cc, ca, cb)
				want := b
				if c {
					want = a
				}
				if got := testSK.DecryptBool(out); got != want {
					t.Fatalf("MUX(%v,%v,%v) = %v, want %v", c, a, b, got, want)
				}
			}
		}
	}
}

func TestGateComposition(t *testing.T) {
	// Chain gates: outputs of one bootstrap feed the next (the real usage
	// pattern whose noise behaviour the scheme must sustain).
	rng := rand.New(rand.NewSource(14))
	ev := NewEvaluator(testEK)
	a := testSK.EncryptBool(rng, true)
	b := testSK.EncryptBool(rng, false)
	// (a NAND b) = true; (true XOR a) = false; NOT → true
	x := ev.NAND(a, b)
	y := ev.XOR(x, a)
	z := ev.NOT(y)
	if !testSK.DecryptBool(z) {
		t.Fatal("gate chain produced wrong result")
	}
}

func TestEvalLUTIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ev := NewEvaluator(testEK)
	space := 4
	for m := 0; m < space; m++ {
		c := testSK.LWE.Encrypt(rng, EncodePBSMessage(m, space), ParamsTest.LWEStdDev)
		out := ev.EvalLUT(c, space, func(x int) int { return x })
		got := DecodePBSMessage(testSK.BigLWE.Phase(out), space)
		if got != m {
			t.Fatalf("identity LUT(%d) = %d", m, got)
		}
	}
}

func TestEvalLUTArbitraryFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ev := NewEvaluator(testEK)
	space := 8
	f := func(x int) int { return (x*x + 3) % space }
	for m := 0; m < space; m++ {
		c := testSK.LWE.Encrypt(rng, EncodePBSMessage(m, space), ParamsTest.LWEStdDev)
		out := ev.EvalLUTKS(c, space, f)
		got := DecodePBSMessage(testSK.LWE.Phase(out), space)
		if got != f(m) {
			t.Fatalf("LUT(%d) = %d, want %d", m, got, f(m))
		}
	}
}

func TestEvalLUTChained(t *testing.T) {
	// PBS output (after KS) must be bootstrappable again.
	rng := rand.New(rand.NewSource(17))
	ev := NewEvaluator(testEK)
	space := 4
	inc := func(x int) int { return (x + 1) % space }
	c := testSK.LWE.Encrypt(rng, EncodePBSMessage(1, space), ParamsTest.LWEStdDev)
	c = ev.EvalLUTKS(c, space, inc) // 2
	c = ev.EvalLUTKS(c, space, inc) // 3
	got := DecodePBSMessage(testSK.LWE.Phase(c), space)
	if got != 3 {
		t.Fatalf("chained LUT = %d, want 3", got)
	}
}

func TestCountersTrackPBS(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ev := NewEvaluator(testEK)
	c := testSK.EncryptBool(rng, true)
	ev.NAND(c, c)
	if ev.Counters.PBSCount != 1 || ev.Counters.KSCount != 1 {
		t.Fatalf("counters: %+v", ev.Counters)
	}
	if ev.Counters.ForwardFFTs == 0 || ev.Counters.InverseFFTs == 0 {
		t.Fatal("FFT counters not incremented")
	}
	// FFT:IFFT ratio should be lb:1 (paper §III).
	ratio := float64(ev.Counters.ForwardFFTs) / float64(ev.Counters.InverseFFTs)
	if ratio != float64(ParamsTest.PBSLevel) {
		t.Fatalf("FFT:IFFT ratio = %v, want %d", ratio, ParamsTest.PBSLevel)
	}
}

func TestKeySizes(t *testing.T) {
	// §II-D: bootstrapping key 10s–100s MB, ciphertext KB level.
	ek := EvaluationKeys{Params: ParamsI}
	bskMB := float64(ek.BSKBytes()) / (1 << 20)
	if bskMB < 10 || bskMB > 500 {
		t.Errorf("set I bsk = %.1f MB, expected 10s-100s MB", bskMB)
	}
	kskMB := float64(ek.KSKBytes()) / (1 << 20)
	if kskMB <= 0 {
		t.Errorf("ksk size must be positive, got %v MB", kskMB)
	}
}

func BenchmarkGateBootstrapTestParams(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	ev := NewEvaluator(testEK)
	c := testSK.EncryptBool(rng, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.NAND(c, c)
	}
}
