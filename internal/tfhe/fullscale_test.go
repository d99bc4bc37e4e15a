package tfhe

import (
	"math/rand"
	"testing"
)

// Full-scale integration test on parameter set I (the paper's 110-bit
// baseline): key generation plus real gate bootstraps at n=500, N=1024.
// Takes a few seconds; skipped with -short.
func TestFullScaleSetIGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale set I test skipped in short mode")
	}
	rng := rand.New(rand.NewSource(1203))
	sk, ek := GenerateKeys(rng, ParamsI)
	ev := NewEvaluator(ek)

	cases := []struct{ a, b bool }{{true, true}, {true, false}, {false, true}, {false, false}}
	for _, c := range cases {
		ca := sk.EncryptBool(rng, c.a)
		cb := sk.EncryptBool(rng, c.b)
		if got := sk.DecryptBool(ev.NAND(ca, cb)); got != !(c.a && c.b) {
			t.Fatalf("set I NAND(%v,%v) = %v", c.a, c.b, got)
		}
	}

	// A programmable LUT at full scale.
	space := 8
	f := func(x int) int { return (x*3 + 1) % space }
	for _, m := range []int{0, 3, 7} {
		ct := sk.LWE.Encrypt(rng, EncodePBSMessage(m, space), ParamsI.LWEStdDev)
		out := ev.EvalLUTKS(ct, space, []func(int) int{f})[0]
		if got := DecodePBSMessage(sk.LWE.Phase(out), space); got != f(m) {
			t.Fatalf("set I LUT(%d) = %d, want %d", m, got, f(m))
		}
	}
}
