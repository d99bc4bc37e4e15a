package workload

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

func TestInferReferenceDomain(t *testing.T) {
	sweep := InferSweep()
	want := 1
	for i := 0; i < InferFeatures; i++ {
		want *= InferDigitMax + 1
	}
	if len(sweep) != want {
		t.Fatalf("sweep has %d vectors, want %d", len(sweep), want)
	}
	classes := make(map[int]bool)
	for _, v := range sweep {
		scores, err := InferReference(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != InferClasses {
			t.Fatalf("%v: %d scores, want %d", v, len(scores), InferClasses)
		}
		for k, s := range scores {
			if s < 0 || s > InferDigitMax {
				t.Fatalf("%v: score %d = %d outside {0..%d}", v, k, s, InferDigitMax)
			}
		}
		classes[InferPredict(scores)] = true
	}
	// The model must actually discriminate: a constant predictor would
	// make the conformance sweep vacuous.
	if len(classes) != InferClasses {
		t.Fatalf("model predicts %d distinct classes over the sweep, want %d", len(classes), InferClasses)
	}
}

func TestInferReferenceValidation(t *testing.T) {
	if _, err := InferReference([]int{1}); err == nil {
		t.Error("short feature vector should error")
	}
	if _, err := InferReference([]int{0, 0, 0, InferDigitMax + 1}); err == nil {
		t.Error("out-of-range feature should error")
	}
	if _, err := BuildInferBatch(0); err == nil {
		t.Error("zero batch should error")
	}
	b := sched.NewBuilder()
	if _, err := BuildInfer(b, b.Inputs(1)); err == nil {
		t.Error("wrong feature wire count should error")
	}
}

// TestBuildInferAgainstReference executes a two-vector inference batch
// sequentially and through the streaming scheduler and checks both
// decode to the cleartext reference (and match each other bitwise).
func TestBuildInferAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	vecs := [][]int{{1, 3, 0, 2}, {3, 3, 1, 0}}

	circ, err := BuildInferBatch(len(vecs))
	if err != nil {
		t.Fatal(err)
	}
	if circ.NumInputs() != len(vecs)*InferFeatures {
		t.Fatalf("circuit has %d inputs, want %d", circ.NumInputs(), len(vecs)*InferFeatures)
	}
	var cts []tfhe.LWECiphertext
	for _, v := range vecs {
		for _, m := range v {
			cts = append(cts, sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, InferSpace), tfhe.ParamsTest.LWEStdDev))
		}
	}

	seq, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), cts)
	if err != nil {
		t.Fatal(err)
	}
	r := &sched.Runner{Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2})}
	got, err := r.Run(circ, sched.Config{}, cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vecs)*InferClasses {
		t.Fatalf("got %d outputs, want %d", len(got), len(vecs)*InferClasses)
	}
	for i, v := range vecs {
		want, err := InferReference(v)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			out := got[i*InferClasses+k]
			if !sameCT(out, seq[i*InferClasses+k]) {
				t.Errorf("vector %d score %d: scheduled differs from sequential", i, k)
			}
			if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(out), InferSpace); dec != want[k] {
				t.Errorf("vector %d score %d decodes to %d, want %d", i, k, dec, want[k])
			}
		}
	}
}

// TestBuildInferSharesRotations pins the multi-value structure: the
// dense stage packs all InferClasses tables onto one blind rotation per
// pooled filter, so the schedule bootstraps strictly fewer times than a
// per-table synthesis would.
func TestBuildInferSharesRotations(t *testing.T) {
	circ, err := BuildInferBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sched.Compile(circ, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// conv: InferCells·InferFilters rotations; dense: InferFilters
	// multi-value rotations (not InferFilters·InferClasses); logit:
	// InferClasses rotations.
	want := InferCells*InferFilters + InferFilters + InferClasses
	if got := sch.Stats().TotalPBS; got != want {
		t.Fatalf("schedule uses %d blind rotations, want %d (dense stage must share via multi-value PBS)", got, want)
	}
}
