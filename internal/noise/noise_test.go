package noise

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tfhe"
	"repro/internal/torus"
)

func TestGateBudgetAllSets(t *testing.T) {
	// Every standard parameter set must leave a healthy gate margin
	// (otherwise the library's own gates would be unreliable).
	for _, p := range append(tfhe.StandardSets(), tfhe.ParamsTest) {
		b := Analyzer{P: p}.PBSBudget(Load{Boot: 2}, GateMargin)
		if b.Sigmas < 4 {
			t.Errorf("set %s: gate margin only %.1f sigmas (std %.2g)", p.Name, b.Sigmas, b.StdDev)
		}
		if b.Failure > 1e-4 {
			t.Errorf("set %s: gate failure probability %.2g too high", p.Name, b.Failure)
		}
	}
}

func TestVariancesPositiveAndOrdered(t *testing.T) {
	a := Analyzer{P: tfhe.ParamsI}
	if a.externalProductVariance() <= 0 {
		t.Fatal("external product variance must be positive")
	}
	if a.BlindRotateVariance() <= a.externalProductVariance() {
		t.Error("blind rotation accumulates n external products")
	}
	if a.BootstrapOutputVariance() <= a.BlindRotateVariance() {
		t.Error("keyswitching adds noise on top of blind rotation")
	}
}

func TestSetIVSupportsMorePrecision(t *testing.T) {
	// The paper introduces set IV for "better precision": its larger N
	// must leave a fresh lookup more margin than set I at equal space.
	s1 := Analyzer{P: tfhe.ParamsI}.PBSBudget(FreshLoad, LUTMargin(16, 1)).Sigmas
	s4 := Analyzer{P: tfhe.ParamsIV}.PBSBudget(FreshLoad, LUTMargin(16, 1)).Sigmas
	if s4 <= s1 {
		t.Errorf("set IV's space-16 margin %.1fσ should exceed set I's %.1fσ", s4, s1)
	}
	if b := (Analyzer{P: tfhe.ParamsI}).PBSBudget(FreshLoad, LUTMargin(4, 1)); b.Sigmas < 4 {
		t.Errorf("set I should support 2-bit messages at 4σ, has %.1fσ", b.Sigmas)
	}
}

func TestModSwitchVarianceShrinksWithN(t *testing.T) {
	a1 := Analyzer{P: tfhe.ParamsI}  // N=1024
	a4 := Analyzer{P: tfhe.ParamsIV} // N=16384
	if a4.ModSwitchVariance() >= a1.ModSwitchVariance() {
		t.Error("larger N should reduce modulus-switching noise")
	}
}

// measureStd empirically measures the phase error of `trials` fresh
// encrypt-operate-decrypt runs using fn, which returns the signed phase
// deviation of one run.
func measureStd(trials int, fn func(i int) float64) float64 {
	var sumSq float64
	for i := 0; i < trials; i++ {
		d := fn(i)
		sumSq += d * d
	}
	return math.Sqrt(sumSq / float64(trials))
}

func TestMonteCarloKeySwitchVariance(t *testing.T) {
	// Empirical keyswitch noise must match the closed-form prediction
	// within Monte-Carlo tolerance (x/÷ 1.5 at 200 trials).
	p := tfhe.ParamsTest
	rng := rand.New(rand.NewSource(11))
	sk, ek := tfhe.GenerateKeys(rng, p)
	ev := tfhe.NewEvaluator(ek)

	pred := math.Sqrt(Analyzer{P: p}.KeySwitchVariance())
	got := measureStd(200, func(i int) float64 {
		mu := torus.EncodeMessage(i%8, 8)
		ct := sk.BigLWE.Encrypt(rng, mu, 0) // zero input noise isolates KS noise
		out := ev.KeySwitch(ct)
		return torus.ToSignedFloat(sk.LWE.Phase(out) - mu)
	})
	if got > 1.5*pred || got < pred/1.5 {
		t.Errorf("keyswitch noise std: measured %.3g, predicted %.3g", got, pred)
	}
}

func TestMonteCarloBlindRotateVariance(t *testing.T) {
	// Empirical PBS output noise (before KS) against the blind-rotation
	// prediction. Uses the sign bootstrap so the ideal output is exactly
	// ±1/8.
	p := tfhe.ParamsTest
	rng := rand.New(rand.NewSource(12))
	sk, ek := tfhe.GenerateKeys(rng, p)
	ev := tfhe.NewEvaluator(ek)

	pred := math.Sqrt(Analyzer{P: p}.BlindRotateVariance())
	mu := torus.FromFloat(0.125)
	tv := tfhe.NewGLWECiphertext(p.K, p.N) // trivial: every body coefficient mu
	for j := range tv.Body().Coeffs {
		tv.Body().Coeffs[j] = mu
	}

	got := measureStd(40, func(i int) float64 {
		ct := sk.LWE.Encrypt(rng, torus.FromFloat(0.25), p.LWEStdDev)
		out := ev.Bootstrap(ct, tv)
		return torus.ToSignedFloat(sk.BigLWE.Phase(out) - mu)
	})
	// The FFT path adds small rounding noise on top of the prediction;
	// allow a factor 2 band.
	if got > 2*pred || got < pred/3 {
		t.Errorf("blind-rotate noise std: measured %.3g, predicted %.3g", got, pred)
	}
}

func TestMonteCarloGateReliability(t *testing.T) {
	// With the predicted margin >= 4 sigma, 100 random gates must all
	// decrypt correctly.
	p := tfhe.ParamsTest
	rng := rand.New(rand.NewSource(13))
	sk, ek := tfhe.GenerateKeys(rng, p)
	ev := tfhe.NewEvaluator(ek)
	for i := 0; i < 100; i++ {
		a := rng.Intn(2) == 1
		b := rng.Intn(2) == 1
		ca := sk.EncryptBool(rng, a)
		cb := sk.EncryptBool(rng, b)
		if got := sk.DecryptBool(ev.NAND(ca, cb)); got != !(a && b) {
			t.Fatalf("gate %d: NAND(%v,%v) = %v", i, a, b, got)
		}
	}
}

func TestBudgetFields(t *testing.T) {
	b := newBudget(1.0/16, 1.0/160)
	if math.Abs(b.Sigmas-10) > 1e-9 {
		t.Errorf("sigmas = %v, want 10", b.Sigmas)
	}
	if b.Failure > 1e-20 {
		t.Errorf("10-sigma failure %v should be negligible", b.Failure)
	}
}

// TestMeasuredBootstrapVariance holds the model the noise rule trusts to
// measurement, at the test set and at set I: 150 seeded NANDs per set.
// The σ of their outputs' phase error must lie within [0.85, 1.15] of
// √BootstrapOutputVariance, and the σ they carry into the decision of a
// LUT applied to them — after the next bootstrap's modulus switch —
// within the same band of PBSBudget(BootLoad, ·).StdDev, the load of a
// LUT on a bootstrapped input.
func TestMeasuredBootstrapVariance(t *testing.T) {
	const trials = 150
	for _, p := range []tfhe.Params{tfhe.ParamsTest, tfhe.ParamsI} {
		rng := rand.New(rand.NewSource(5))
		sk, ek := tfhe.GenerateKeys(rng, p)
		ev := tfhe.NewEvaluator(ek)
		a := Analyzer{P: p}
		twoN := 2 * p.N
		var out, in float64
		for i := 0; i < trials; i++ {
			x, y := rng.Intn(2) == 1, rng.Intn(2) == 1
			c := ev.NAND(sk.EncryptBool(rng, x), sk.EncryptBool(rng, y))
			mu := 0.125
			if x && y {
				mu = -0.125
			}
			e := torus.ToSignedFloat(sk.LWE.Phase(c) - torus.FromFloat(mu))
			out += e * e
			// The phase the next blind rotation decides on, in Z_2N.
			ms := ev.ModSwitchLWE(c)
			phase := ms.B
			for j, s := range sk.LWE.Bits {
				phase -= int(s) * ms.A[j]
			}
			d := float64(((phase%twoN)+twoN)%twoN)/float64(twoN) - mu
			d -= math.Round(d)
			in += d * d
		}
		outRatio := math.Sqrt(out/trials) / math.Sqrt(a.BootstrapOutputVariance())
		inRatio := math.Sqrt(in/trials) / a.PBSBudget(BootLoad, LUTMargin(4, 1)).StdDev
		t.Logf("set %s: output σ ratio %.3f, bootstrapped-input σ ratio %.3f", p.Name, outRatio, inRatio)
		if outRatio < 0.85 || outRatio > 1.15 {
			t.Errorf("set %s: measured bootstrap output σ is %.3f× the prediction", p.Name, outRatio)
		}
		if inRatio < 0.85 || inRatio > 1.15 {
			t.Errorf("set %s: measured σ of a bootstrapped LUT input is %.3f× the prediction", p.Name, inRatio)
		}
	}
}

// TestCheck pins the one rule's verdicts on the shapes that set its
// threshold: what the test suite runs at the test set and gates at sets I
// and III are admitted; the set-I sums of bootstrapped digits, a lookup
// the test vector cannot hold and any bootstrap under an invalid
// parameter set are refused.
func TestCheck(t *testing.T) {
	fresh := func(space, k int) PBS { return PBS{Node: -1, In: FreshLoad, Space: space, K: k} }
	admit := []struct {
		p   tfhe.Params
		pbs PBS
	}{
		{tfhe.ParamsTest, fresh(8, 3)},
		{tfhe.ParamsTest, fresh(16, 1)},
		{tfhe.ParamsI, PBS{In: Load{Boot: 2}}},
		{tfhe.ParamsIII, PBS{In: Load{Boot: 2}}}, // any binary gate, XOR too, on two bootstrapped inputs
		{tfhe.ParamsI, PBS{In: BootLoad, Space: 4, K: 1}},
	}
	for _, c := range admit {
		if err := Check(c.p, c.pbs); err != nil {
			t.Errorf("set %s %+v: %v", c.p.Name, c.pbs, err)
		}
	}
	refuse := []struct {
		p   tfhe.Params
		pbs PBS
	}{
		{tfhe.ParamsI, PBS{Node: 7, In: Load{Boot: 3}, Space: 16, K: 1}},  // digit + digit + carry
		{tfhe.ParamsI, PBS{Node: 7, In: Load{Boot: 17}, Space: 16, K: 1}}, // packed pair of bootstrapped digits
		{tfhe.ParamsI, PBS{Node: 7, In: Load{Boot: 2}, Space: 8, K: 2}},   // inference dense stage
		{tfhe.ParamsTest, fresh(8, 4)},
	}
	for _, c := range refuse {
		err := Check(c.p, c.pbs)
		var budget *BudgetError
		if !errors.As(err, &budget) || budget.Node != c.pbs.Node || budget.Set != c.p.Name || budget.Failure <= MaxFailure {
			t.Errorf("set %s %+v: got %v, want a budget refusal", c.p.Name, c.pbs, err)
			continue
		}
		if !strings.Contains(err.Error(), "predicts failure") {
			t.Errorf("refusal %q does not state the predicted failure", err)
		}
	}
	if err := Check(tfhe.ParamsTest, fresh(4, tfhe.ParamsTest.N)); err == nil || !strings.Contains(err.Error(), "space·k ≤ N") {
		t.Errorf("space·k > N: got %v, want the packing bound", err)
	}
	if err := Check(tfhe.Params{}, PBS{In: Load{Boot: 2}}); err == nil {
		t.Error("zero Params admitted a gate")
	}
	if err := Check(tfhe.Params{}); err != nil {
		t.Errorf("no bootstraps under zero Params: %v", err)
	}
}
