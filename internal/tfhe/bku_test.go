package tfhe

import (
	"math/rand"
	"testing"

	"repro/internal/torus"
)

func TestUnrolledBSKStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sk, _ := GenerateKeys(rng, ParamsTest)
	u := GenerateUnrolledBSK(rng, sk)
	if len(u.Pairs) != ParamsTest.SmallN/2 {
		t.Fatalf("%d pairs for n=%d", len(u.Pairs), ParamsTest.SmallN)
	}
	if ParamsTest.SmallN%2 == 0 && u.Tail != nil {
		t.Error("even n should have no tail")
	}
	if u.Iterations() != (ParamsTest.SmallN+1)/2 {
		t.Errorf("iterations = %d", u.Iterations())
	}
}

func TestUnrolledKeyIs1Point5x(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sk, ek := GenerateKeys(rng, ParamsTest)
	u := GenerateUnrolledBSK(rng, sk)
	ratio := float64(u.Bytes()) / float64(ek.BSKBytes())
	if ratio < 1.45 || ratio > 1.55 {
		t.Errorf("unrolled key ratio %.2f, want ~1.5 (Matcha's increased key size)", ratio)
	}
}

func TestUnrolledBootstrapMatchesStandard(t *testing.T) {
	// The unrolled blind rotation must compute the same function as the
	// standard one: sign bootstrapping of booleans.
	rng := rand.New(rand.NewSource(23))
	sk, ek := GenerateKeys(rng, ParamsTest)
	u := GenerateUnrolledBSK(rng, sk)
	ev := NewEvaluator(ek)

	tv := ev.SignTestVector()
	for i := 0; i < 20; i++ {
		b := rng.Intn(2) == 1
		ct := sk.EncryptBool(rng, b)
		std := ev.Bootstrap(ct, tv)
		unr := ev.BootstrapUnrolled(ct, tv, u)
		if got, want := decryptBoolBig(sk, unr), decryptBoolBig(sk, std); got != want {
			t.Fatalf("trial %d: unrolled %v, standard %v", i, got, want)
		}
		if got := decryptBoolBig(sk, unr); got != b {
			t.Fatalf("trial %d: unrolled bootstrap of %v decrypted %v", i, b, got)
		}
	}
}

func TestUnrolledLUTCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sk, ek := GenerateKeys(rng, ParamsTest)
	u := GenerateUnrolledBSK(rng, sk)
	ev := NewEvaluator(ek)

	space := 4
	f := func(x int) int { return (3 * x) % space }
	tv := ev.NewLUTTestVector(space, func(m int) torus.Torus32 {
		return EncodePBSMessage(f(m), space)
	})
	for m := 0; m < space; m++ {
		ct := sk.LWE.Encrypt(rng, EncodePBSMessage(m, space), ParamsTest.LWEStdDev)
		ct.AddPlain(torus.EncodeMessage(1, 4*space)) // half-slot centering
		out := ev.BootstrapUnrolled(ct, tv, u)
		if got := DecodePBSMessage(sk.BigLWE.Phase(out), space); got != f(m) {
			t.Fatalf("unrolled LUT(%d) = %d, want %d", m, got, f(m))
		}
	}
}

func TestUnrolledHalvesIterationsCounter(t *testing.T) {
	// The serial iteration structure is what unrolling buys: external
	// products per bootstrap grow ~1.5x while rotations per *iteration*
	// grow, but the loop count halves (observable via key Iterations).
	rng := rand.New(rand.NewSource(25))
	sk, _ := GenerateKeys(rng, ParamsTest)
	u := GenerateUnrolledBSK(rng, sk)
	if u.Iterations()*2 != ParamsTest.SmallN {
		t.Errorf("unrolled iterations %d vs n=%d", u.Iterations(), ParamsTest.SmallN)
	}
}

func TestUnrolledOddN(t *testing.T) {
	p := ParamsTest
	p.SmallN = 65
	rng := rand.New(rand.NewSource(26))
	sk, _ := GenerateKeys(rng, p)
	u := GenerateUnrolledBSK(rng, sk)
	if u.Tail == nil {
		t.Fatal("odd n requires a tail GGSW")
	}
	if u.Iterations() != 33 {
		t.Errorf("iterations = %d, want 33", u.Iterations())
	}
}
