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
// bitwise through every backend. The circuits it cannot compute, the
// 3-digit multiply and the inference sweep, must come back right or
// refused by the one noise rule with their predicted failure, never
// decoded wrong.
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
	t.Run("multiply", testMultiplyRightOrRefused)
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

// testMultiplyRightOrRefused runs the 3-digit multiply through every
// backend of the current fixture.
func testMultiplyRightOrRefused(t *testing.T) {
	const digits, vx, vy = 3, 63, 12
	circ, err := intops.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(108))
	x, err := intops.Encrypt(rng, fixture.SK, vx, digits)
	if err != nil {
		t.Fatal(err)
	}
	y, err := intops.Encrypt(rng, fixture.SK, vy, digits)
	if err != nil {
		t.Fatal(err)
	}
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)
	want := vx * vy % (intops.MaxValue(digits) + 1)
	for _, be := range fixture.Backends() {
		got, err := be.Circuit(circ, inputs)
		if err != nil {
			requireRefusal(t, be.Name(), err)
			continue
		}
		if dec := intops.Decrypt(fixture.SK, intops.Int{Digits: got}); dec != want {
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
