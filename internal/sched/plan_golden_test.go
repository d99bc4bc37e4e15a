// Golden plan shapes, and the mini deep-NN circuit they pin. This file is
// in package sched_test (the only one in the directory) because it
// imports intops, which itself imports sched.
package sched_test

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/intops"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// updatePlans regenerates the golden plan fixtures:
//
//	go test ./internal/sched -run TestGoldenPlans -update-plans
//
// A diff in these files means the scheduler's plan (ranks), dispatch
// grouping, or an optimizer pass changed shape — review the new plan
// before committing it.
var updatePlans = flag.Bool("update-plans", false, "rewrite the golden plan fixtures")

// adderCircuit4 is the 4-bit ripple-carry adder of the benchmark workload
// adder4_sched_I: 17 gates of three ops in 7 levels by rank, 2 wide (the
// carry chain's heads) then 2, 2, 2, 2, 2 and 5 (the sum bits and the
// carry out). Its plan pins that a level's gates are one dispatch.
func adderCircuit4(t *testing.T) *sched.Circuit {
	t.Helper()
	b := sched.NewBuilder()
	x, y := b.Inputs(4), b.Inputs(4)
	var carry sched.Wire
	for i := range x {
		p := b.Gate(engine.XOR, x[i], y[i])
		g := b.Gate(engine.AND, x[i], y[i])
		if i == 0 {
			b.Output(p)
			carry = g
			continue
		}
		b.Output(b.Gate(engine.XOR, p, carry))
		carry = b.Gate(engine.OR, g, b.Gate(engine.AND, p, carry))
	}
	b.Output(carry)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mulCircuit3 is the 3-digit multiplier at the test set's radix, base 4
// over space 16.
func mulCircuit3(t *testing.T) *sched.Circuit { return mulCircuitAt(t, tfhe.ParamsTest) }

// mulCircuit3I is the 3-digit multiplier set I computes, at the radix the
// noise rule admits there: base 2 over space 4.
func mulCircuit3I(t *testing.T) *sched.Circuit { return mulCircuitAt(t, tfhe.ParamsI) }

// mulCircuitAt builds the 3-digit multiplier at p's radix (intops.For).
func mulCircuitAt(t *testing.T, p tfhe.Params) *sched.Circuit {
	t.Helper()
	r, err := intops.For(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.MulCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompileAllocs pins what compiling allocates, the per-request cost
// of a service request. The 3-digit multiply for the test set: a linear
// node already flat is not copied to compute its load, and each lookup's
// dispatch key is one allocation; it measures 87. A lookup envelope, 64
// lookups of one space-16 table for set I: the nodes share one table
// (Builder.LUTs), whose key is spelled once; it measures 23, against 86
// with a table copy per lookup (Builder.LUT in a loop).
func TestCompileAllocs(t *testing.T) {
	c := mulCircuit3(t)
	cfg := sched.Config{Opt: sched.OptConfig{Params: tfhe.ParamsTest}}
	if n := testing.AllocsPerRun(10, func() { _, _ = sched.Compile(c, cfg) }); n > 90 {
		t.Errorf("Compile(mul3) allocates %v times, want at most 90", n)
	}
	for _, items := range []int{4, 64} {
		b := sched.NewBuilder()
		b.Output(b.LUTs(b.Inputs(items), 16, make([]int, 16))...)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := sched.Config{Opt: sched.OptConfig{Params: tfhe.ParamsI}}
		if n := testing.AllocsPerRun(10, func() { _, _ = sched.Compile(c, cfg) }); n > 30 {
			t.Errorf("Compile(%d-item LUT batch) allocates %v times, want at most 30", items, n)
		}
	}
}

// The mini deep-NN encoding: activations are small digits in
// {0..nnDigitMax} inside the nnSpace PBS message space, so a fan-in-2
// linear combination never leaves the padding-bit range.
const (
	nnSpace    = 16
	nnDigitMax = 3
)

// nnActivation is the mini NN's activation table: a shifted, clamped ReLU
// mapping any message in {0..nnSpace-1} back into {0..nnDigitMax}, so
// layer outputs compose.
func nnActivation(v int) int {
	return min(max(v-2, 0), nnDigitMax)
}

// buildNN appends a scaled-down deep-NN circuit: each layer maps the
// previous activations through `width` neurons, every neuron a free
// fan-in-2 linear combination followed by one PBS activation — the
// linear-layer + PBS-ReLU structure of the Zama deep-NN workload. All
// neurons of a layer are independent.
func buildNN(b *sched.Builder, inputs []sched.Wire, layers []int) []sched.Wire {
	prev := inputs
	for _, width := range layers {
		cur := make([]sched.Wire, width)
		for k := range cur {
			a := prev[k%len(prev)]
			c := prev[(k+1)%len(prev)]
			s := b.Lin(0, sched.Term{W: a, C: 1}, sched.Term{W: c, C: 1})
			cur[k] = b.LUTFunc(s, nnSpace, nnActivation)
		}
		prev = cur
	}
	return prev
}

// nnReference computes the plaintext outputs of buildNN's circuit.
func nnReference(inputs []int, layers []int) []int {
	prev := inputs
	for _, width := range layers {
		cur := make([]int, width)
		for k := range cur {
			cur[k] = nnActivation(prev[k%len(prev)] + prev[(k+1)%len(prev)])
		}
		prev = cur
	}
	return prev
}

// nnBuild builds buildNN's circuit over n inputs as a standalone circuit.
func nnBuild(t *testing.T, n int, layers []int) *sched.Circuit {
	t.Helper()
	b := sched.NewBuilder()
	b.Output(buildNN(b, b.Inputs(n), layers)...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// nnCircuit is a small deep-NN workload slice: 3 layers over 3 inputs.
// Width 4 over 3 wires means exactly one neuron per layer duplicates
// another's fan-in pair — the plan shows CSE deduplicating that neuron
// while the rest of the layer survives.
func nnCircuit(t *testing.T) *sched.Circuit { return nnBuild(t, 3, []int{4, 4, 2}) }

// encryptNN encrypts the mini NN's input activations.
func encryptNN(rng *rand.Rand, sk tfhe.SecretKeys, in []int) []tfhe.LWECiphertext {
	cts := make([]tfhe.LWECiphertext, len(in))
	for i, m := range in {
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, nnSpace), tfhe.ParamsTest.LWEStdDev)
	}
	return cts
}

// TestNNAgainstReference runs a mini deep NN with a wide first layer node
// by node and through a Runner: the outputs are bitwise identical and
// decrypt to the plaintext reference, and since every neuron of a layer
// shares the activation table, each layer is one dispatch.
func TestNNAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	layers := []int{4, 1, 1}
	in := []int{1, 3, 0, 2}
	c := nnBuild(t, len(in), layers)
	cts := encryptNN(rng, sk, in)

	want := nnReference(in, layers)
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
		if got[k].B != seq[k].B || !slices.Equal(got[k].A, seq[k].A) {
			t.Errorf("output %d: scheduled differs from sequential", k)
		}
		if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[k]), nnSpace); dec != want[k] {
			t.Errorf("output %d decrypts to %d, want %d", k, dec, want[k])
		}
	}
	sch, err := sched.Compile(c, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sch.Stats(); st.Levels != len(layers) || st.Dispatches != len(layers) {
		t.Errorf("NN schedule = %+v, want %d levels with 1 dispatch each", st, len(layers))
	}
}

// TestNNOptimized runs the mini deep NN through the optimizer pass
// pipeline: CSE deduplicates neurons that share a fan-in pair (width >
// fan-in wires guarantees at least one) and the outputs still match the
// plaintext reference.
func TestNNOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	layers := []int{4, 4, 2}
	in := []int{1, 3, 2}
	c := nnBuild(t, len(in), layers)
	cts := encryptNN(rng, sk, in)

	opt := sched.OptAll()
	opt.Params = tfhe.ParamsTest
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
	got, err := sched.Execute(c, sch, cts, r)
	if err != nil {
		t.Fatal(err)
	}
	want := nnReference(in, layers)
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for k := range got {
		if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[k]), nnSpace); dec != want[k] {
			t.Errorf("output %d decrypts to %d, want %d", k, dec, want[k])
		}
	}
}

// TestGoldenPlans pins Schedule.Describe for the benchmark circuits,
// before and after optimization, against committed fixtures. The
// optimized plans are compiled for a named parameter set, as every
// production caller compiles them, and double as a regression floor on
// what the pipeline achieves: if a pass stops firing, the pass table and
// PBS counts move. mul3 at set I is the multiply set I runs, at radix 2
// (intops.For), whose fresh-input pairs pack into the widest groups the
// noise rule admits there (the mvpack row). Every plan is built by
// Compile, so every optimized plan is one the rule admits at its set.
func TestGoldenPlans(t *testing.T) {
	optimized := func(p tfhe.Params) sched.Config {
		opt := sched.OptAll()
		opt.Params = p
		return sched.Config{Opt: opt}
	}
	cases := []struct {
		name  string
		build func(*testing.T) *sched.Circuit
		cfg   sched.Config
	}{
		{"adder4_naive", adderCircuit4, sched.Config{}},
		{"mul3_naive", mulCircuit3, sched.Config{}},
		{"mul3_optimized", mulCircuit3I, optimized(tfhe.ParamsI)},
		{"nn_naive", nnCircuit, sched.Config{}},
		{"nn_optimized", nnCircuit, optimized(tfhe.ParamsTest)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := sched.Compile(tc.build(t), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := s.Describe()
			path := filepath.Join("testdata", "plans", tc.name+".golden")
			if *updatePlans {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-plans to generate)", err)
			}
			if got != string(want) {
				t.Errorf("plan shape drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
