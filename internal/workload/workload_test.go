package workload

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

func TestDeepNNLayerStructure(t *testing.T) {
	nn, err := NewDeepNN(20, tfhe.ParamsII)
	if err != nil {
		t.Fatal(err)
	}
	layers := nn.LayerPBS()
	if len(layers) != 20 {
		t.Fatalf("NN-20 has %d layers", len(layers))
	}
	if layers[0] != 840 {
		t.Errorf("conv layer PBS = %d, want 840 ([1,2,21,20])", layers[0])
	}
	for i := 1; i < 20; i++ {
		if layers[i] != 92 {
			t.Errorf("dense layer %d PBS = %d, want 92", i, layers[i])
		}
	}
	if nn.TotalPBS() != 840+19*92 {
		t.Errorf("total PBS = %d", nn.TotalPBS())
	}
}

func TestDeepNNDepthValidation(t *testing.T) {
	if _, err := NewDeepNN(1, tfhe.ParamsII); err == nil {
		t.Error("depth 1 should error")
	}
}

func TestNNParams(t *testing.T) {
	for _, n := range []int{1024, 2048, 4096} {
		p, err := NNParams(n)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if p.N != n {
			t.Errorf("NNParams(%d).N = %d", n, p.N)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("N=%d params invalid: %v", n, err)
		}
	}
	if _, err := NNParams(512); err == nil {
		t.Error("unsupported N should error")
	}
}

func TestFig7ModelsCount(t *testing.T) {
	models, err := Fig7Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 9 {
		t.Fatalf("Fig 7 has %d combinations, want 9", len(models))
	}
	// Deeper models must have strictly more PBS.
	if models[0].TotalPBS() >= models[8].TotalPBS() {
		t.Error("NN-100 should have more PBS than NN-20")
	}
}

func TestMicrobenchmarkValidation(t *testing.T) {
	if _, err := NewMicrobenchmark(tfhe.ParamsI, 0); err == nil {
		t.Error("count 0 should error")
	}
	mb, err := NewMicrobenchmark(tfhe.ParamsI, 100)
	if err != nil || mb.Count != 100 {
		t.Errorf("microbenchmark: %+v, %v", mb, err)
	}
}

func TestGenerateInputsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sk, _ := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	cts, msgs := GenerateInputs(rng, sk, 4, 16)
	if len(cts) != 16 || len(msgs) != 16 {
		t.Fatal("wrong count")
	}
	for i, ct := range cts {
		got := tfhe.DecodePBSMessage(sk.LWE.Phase(ct), 4)
		if got != msgs[i] {
			t.Errorf("input %d decrypts to %d, want %d", i, got, msgs[i])
		}
	}
}

func TestGateWorkloadExecutes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ev := tfhe.NewEvaluator(ek)
	g := NewGateWorkload(rng, 4)
	a := sk.EncryptBool(rng, true)
	b := sk.EncryptBool(rng, false)
	out := g.Execute(ev, a, b)

	// Compute the expected plaintext result.
	cur := true
	bb := false
	for _, kind := range g.Gates {
		switch kind {
		case "NAND":
			cur = !(cur && bb)
		case "AND":
			cur = cur && bb
		case "OR":
			cur = cur || bb
		case "XOR":
			cur = cur != bb
		case "NOR":
			cur = !(cur || bb)
		case "XNOR":
			cur = cur == bb
		}
	}
	if got := sk.DecryptBool(out); got != cur {
		t.Errorf("gate chain result %v, want %v (gates %v)", got, cur, g.Gates)
	}
	if ev.Counters.PBSCount != 4 {
		t.Errorf("expected 4 bootstraps, got %d", ev.Counters.PBSCount)
	}
}

// sameCT compares two ciphertexts bitwise.
func sameCT(a, b tfhe.LWECiphertext) bool {
	if a.N() != b.N() || a.B != b.B {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

func TestGateWorkloadCircuitMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	g := NewGateWorkload(rng, 5)
	a := sk.EncryptBool(rng, true)
	b := sk.EncryptBool(rng, false)

	want := g.Execute(tfhe.NewEvaluator(ek), a, b)

	c, err := g.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 2 || c.NumOutputs() != 1 {
		t.Fatalf("circuit shape: %d inputs, %d outputs", c.NumInputs(), c.NumOutputs())
	}
	r := &sched.Runner{Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2})}
	got, err := r.Run(c, sched.Config{}, []tfhe.LWECiphertext{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !sameCT(got[0], want) {
		t.Error("scheduled gate chain differs from sequential execution")
	}
	// A chain schedule has one gate per level — the levelizer must not
	// merge dependent gates.
	sch, err := sched.Compile(c, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sch.Stats(); st.Levels != 5 || st.MaxLevelPBS != 1 {
		t.Errorf("chain schedule = %+v, want 5 levels of width 1", st)
	}
}

func TestBuildNNAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	nn, err := NewDeepNN(3, tfhe.ParamsII)
	if err != nil {
		t.Fatal(err)
	}
	layers := nn.MiniLayers(200) // [4, 1, 1]
	if layers[0] < 2 {
		t.Fatalf("mini conv layer too narrow: %v", layers)
	}

	in := []int{1, 3, 0, 2}
	b := sched.NewBuilder()
	ws := b.Inputs(len(in))
	outs, err := BuildNN(b, ws, layers)
	if err != nil {
		t.Fatal(err)
	}
	b.Output(outs...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cts := make([]tfhe.LWECiphertext, len(in))
	for i, m := range in {
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, NNSpace), tfhe.ParamsTest.LWEStdDev)
	}

	want := NNReference(in, layers)
	seq, err := sched.RunSequential(c, tfhe.NewEvaluator(ek), cts)
	if err != nil {
		t.Fatal(err)
	}
	r := &sched.Runner{Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2})}
	got, err := r.Run(c, sched.Config{}, cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for k := range got {
		if !sameCT(got[k], seq[k]) {
			t.Errorf("output %d: scheduled differs from sequential", k)
		}
		if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[k]), NNSpace); dec != want[k] {
			t.Errorf("output %d decrypts to %d, want %d", k, dec, want[k])
		}
	}
	// Each layer is one level; every neuron of a layer shares the
	// activation table, so each level is a single dispatch.
	sch, err := sched.Compile(c, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sch.Stats()
	if st.Levels != len(layers) || st.Dispatches != len(layers) {
		t.Errorf("NN schedule = %+v, want %d levels with 1 dispatch each", st, len(layers))
	}
}

func TestBuildNNValidation(t *testing.T) {
	b := sched.NewBuilder()
	if _, err := BuildNN(b, nil, []int{2}); err == nil {
		t.Error("no inputs should error")
	}
	b2 := sched.NewBuilder()
	if _, err := BuildNN(b2, b2.Inputs(2), []int{0}); err == nil {
		t.Error("zero-width layer should error")
	}
}

func TestMiniLayers(t *testing.T) {
	nn, err := NewDeepNN(20, tfhe.ParamsII)
	if err != nil {
		t.Fatal(err)
	}
	layers := nn.MiniLayers(100)
	if len(layers) != 20 {
		t.Fatalf("mini layers count %d", len(layers))
	}
	if layers[0] != 8 { // 840/100
		t.Errorf("mini conv width = %d, want 8", layers[0])
	}
	for i := 1; i < len(layers); i++ {
		if layers[i] != 1 { // 92/100 clamps to 1
			t.Errorf("mini dense width[%d] = %d, want 1", i, layers[i])
		}
	}
}

func TestReLUTestVectorValue(t *testing.T) {
	space := 8
	// m=2 encodes signed -2 → ReLU → 0 → encoded space/2=4.
	if got := ReLUTestVectorValue(2, space); got != tfhe.EncodePBSMessage(4, space) {
		t.Error("negative input should clamp to zero")
	}
	// m=6 encodes signed +2 → stays 6.
	if got := ReLUTestVectorValue(6, space); got != tfhe.EncodePBSMessage(6, space) {
		t.Error("positive input should pass through")
	}
}

// TestBuildNNOptimized runs the mini deep-NN circuit through the
// scheduler's optimizer pass pipeline: CSE deduplicates neurons that
// share a fan-in pair (width > fan-in wires guarantees at least one)
// and the outputs still match the plaintext reference.
func TestBuildNNOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	layers := []int{4, 4, 2}
	in := []int{1, 3, 2}

	b := sched.NewBuilder()
	ws := b.Inputs(len(in))
	outs, err := BuildNN(b, ws, layers)
	if err != nil {
		t.Fatal(err)
	}
	b.Output(outs...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cts := make([]tfhe.LWECiphertext, len(in))
	for i, m := range in {
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, NNSpace), tfhe.ParamsTest.LWEStdDev)
	}

	opt := sched.OptAll()
	opt.MultiValueBudget = tfhe.ParamsTest.N
	sch, err := sched.Compile(c, sched.Config{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := sched.Compile(c, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.Stats().TotalPBS >= naive.Stats().TotalPBS {
		t.Errorf("optimizer saved nothing: %d PBS vs naive %d (width 4 over 3 wires must dedup)",
			sch.Stats().TotalPBS, naive.Stats().TotalPBS)
	}

	r := &sched.Runner{Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2})}
	got, err := r.RunSchedule(c, sch, cts)
	if err != nil {
		t.Fatal(err)
	}
	want := NNReference(in, layers)
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for k := range got {
		if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[k]), NNSpace); dec != want[k] {
			t.Errorf("output %d decrypts to %d, want %d", k, dec, want[k])
		}
	}
}
