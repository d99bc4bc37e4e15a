package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/torus"
)

func randPoly(rng *rand.Rand, n int) Poly {
	p := New(n)
	Uniform(rng, p)
	return p
}

func TestNewPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=3")
		}
	}()
	New(3)
}

func TestAddSubInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, 64)
	q := randPoly(rng, 64)
	r := Sub(Add(p, q), q)
	if !r.Equal(p) {
		t.Error("(p+q)-q != p")
	}
}

func TestNegIsSubFromZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randPoly(rng, 32)
	z := New(32)
	if !Neg(p).Equal(Sub(z, p)) {
		t.Error("-p != 0-p")
	}
}

func TestMonomialRotateByZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randPoly(rng, 128)
	if !MulByMonomial(p, 0).Equal(p) {
		t.Error("p*X^0 != p")
	}
}

func TestMonomialXNIsNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randPoly(rng, 128)
	if !MulByMonomial(p, 128).Equal(Neg(p)) {
		t.Error("p*X^N != -p")
	}
}

func TestMonomialX2NIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randPoly(rng, 128)
	if !MulByMonomial(p, 256).Equal(p) {
		t.Error("p*X^2N != p")
	}
}

func TestMonomialGroupLaw(t *testing.T) {
	// X^a * X^b == X^(a+b) for random a, b.
	rng := rand.New(rand.NewSource(6))
	p := randPoly(rng, 64)
	f := func(a, b uint8) bool {
		lhs := MulByMonomial(MulByMonomial(p, int(a)), int(b))
		rhs := MulByMonomial(p, int(a)+int(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMonomialNegativeExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randPoly(rng, 64)
	if !MulByMonomial(MulByMonomial(p, -5), 5).Equal(p) {
		t.Error("X^-5 then X^5 should be identity")
	}
}

func TestMonomialMatchesNaiveMul(t *testing.T) {
	// Multiplying by the monomial X^k must agree with the generic
	// negacyclic product against the indicator vector of X^k.
	rng := rand.New(rand.NewSource(8))
	n := 32
	p := randPoly(rng, n)
	for k := 0; k < n; k++ {
		mono := make([]int32, n)
		mono[k] = 1
		if !MulByMonomial(p, k).Equal(MulNaive(p, mono)) {
			t.Fatalf("monomial k=%d disagrees with naive product", k)
		}
	}
}

func TestMulNaiveDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 32
	p := randPoly(rng, n)
	q := randPoly(rng, n)
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(rng.Intn(7) - 3)
	}
	lhs := MulNaive(Add(p, q), s)
	rhs := Add(MulNaive(p, s), MulNaive(q, s))
	if !lhs.Equal(rhs) {
		t.Error("(p+q)*s != p*s + q*s")
	}
}

func TestCopyIsDeep(t *testing.T) {
	p := New(8)
	q := p.Copy()
	q.Coeffs[0] = 1
	if p.Coeffs[0] != 0 {
		t.Error("Copy shares storage")
	}
}

func TestClear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randPoly(rng, 16)
	p.Clear()
	if !p.Equal(New(16)) {
		t.Error("Clear did not zero the polynomial")
	}
}

func TestMaxDistance(t *testing.T) {
	p := New(4)
	q := New(4)
	q.Coeffs[2] = torus.FromFloat(0.25)
	if d := MaxDistance(p, q); d < 0.24 || d > 0.26 {
		t.Errorf("MaxDistance = %v, want 0.25", d)
	}
}
