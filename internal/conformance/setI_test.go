package conformance

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/intops"
	"repro/internal/noise"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// TestSetIConform is the conformance tier at parameter set I, the set
// every benchmark workload runs at. The cases set I computes run
// unchanged over a set-I fixture: every gate, the LUTs at spaces 4 and
// 8, the multi-value lookups up to space8-k3 and the mixed circuit, each
// bitwise through every backend. The 3-digit multiply, at the radix the
// one noise rule chooses for the set, must decode right through every
// backend. The inference sweep, whose message space is still fixed, must
// come back right or refused by the rule with its predicted failure,
// never decoded wrong.
func TestSetIConform(t *testing.T) {
	f, err := NewFixture(2026, tfhe.ParamsI)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func(prev *Fixture) { fixture = prev }(fixture)
	fixture = f
	t.Run("gates", TestGatesConform)
	t.Run("lut", TestLUTConform)
	t.Run("multilut", TestMultiLUTConform)
	t.Run("circuit", TestCircuitConform)
	t.Run("multiply", testMultiplyRight)
	t.Run("infer-sweep", testInferSweepRightOrRefused)
}

// requireRefusal asserts err is the one noise rule's refusal carrying its
// predicted failure: a *noise.BudgetError in process, the noise_budget
// code over the service.
func requireRefusal(t *testing.T, backend string, err error) {
	t.Helper()
	var budget *noise.BudgetError
	var api *server.APIError
	switch {
	case errors.As(err, &budget):
		if !(budget.Failure > noise.MaxFailure) {
			t.Fatalf("%s: refusal %v predicts failure %g, within the threshold", backend, err, budget.Failure)
		}
	case errors.As(err, &api) && api.Code == server.CodeNoiseBudget:
		if !strings.Contains(api.Message, "predicts failure") {
			t.Fatalf("%s: refusal %q does not carry its predicted failure", backend, api.Message)
		}
	default:
		t.Fatalf("%s: %v, want the correct answer or a noise refusal", backend, err)
	}
}

// testMultiplyRight runs the 3-digit multiply, at the fixture's radix,
// through every backend of the current fixture: each must decode the
// product, and a refusal fails the test like a wrong decode.
func testMultiplyRight(t *testing.T) {
	const digits = 3
	r, err := intops.For(fixture.SK.Params)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := r.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	mod := r.MaxValue(digits) + 1
	vx, vy := mod-1, 12%mod
	rng := rand.New(rand.NewSource(108))
	x, err := r.Encrypt(rng, fixture.SK, vx, digits)
	if err != nil {
		t.Fatal(err)
	}
	y, err := r.Encrypt(rng, fixture.SK, vy, digits)
	if err != nil {
		t.Fatal(err)
	}
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)
	want := vx * vy % mod
	for _, be := range fixture.Backends() {
		got, err := be.Circuit(circ, inputs)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if dec := r.Decrypt(fixture.SK, intops.Int{Digits: got}); dec != want {
			t.Fatalf("%s: product decodes to %d, want %d", be.Name(), dec, want)
		}
	}
}

// testInferSweepRightOrRefused runs TestInferSweepService's sweep through
// its two service backends.
func testInferSweepRightOrRefused(t *testing.T) {
	sweep := workload.InferSweep()
	cts, scores := encInferVecs(t, 107, sweep)
	for _, be := range fixture.Backends() {
		if be.Name() != "encrypted-inference" && be.Name() != "routed-cluster" {
			continue
		}
		got, err := be.Infer(cts)
		if err != nil {
			requireRefusal(t, be.Name(), err)
			continue
		}
		if len(got) != len(sweep) {
			t.Fatalf("%s: %d score groups, want %d", be.Name(), len(got), len(sweep))
		}
		for i := range sweep {
			requireInts(t, be.Name(), got[i], workload.InferSpace, scores[i])
		}
	}
}
