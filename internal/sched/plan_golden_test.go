// Golden plan shapes. This file is in package sched_test (the only one
// in the directory) because it imports intops and workload, which
// themselves import sched.
package sched_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/intops"
	"repro/internal/sched"
	"repro/internal/workload"
)

// updatePlans regenerates the golden plan fixtures:
//
//	go test ./internal/sched -run TestGoldenPlans -update-plans
//
// A diff in these files means the scheduler's levelization, dispatch
// grouping, or an optimizer pass changed shape — review the new plan
// before committing it.
var updatePlans = flag.Bool("update-plans", false, "rewrite the golden plan fixtures")

// adderCircuit4 is the 4-bit ripple-carry adder of the benchmark workload
// adder4_sched_I: 17 gates of three ops in 7 levels, 8 wide then 2, 1, 2,
// 1, 2, 1. Its plan pins that a level's gates are one dispatch.
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

// mulCircuit3 is the 3-digit radix-4 multiplier — the bench circuit the
// optimized_vs_naive ratio gate runs.
func mulCircuit3(t *testing.T) *sched.Circuit {
	t.Helper()
	c, err := intops.MulCircuit(3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// nnCircuit is a small deep-NN workload slice: 3 layers over 3 inputs.
// Width 4 over 3 wires means exactly one neuron per layer duplicates
// another's fan-in pair — the plan shows CSE deduplicating that neuron
// while the rest of the layer survives.
func nnCircuit(t *testing.T) *sched.Circuit {
	t.Helper()
	b := sched.NewBuilder()
	outs, err := workload.BuildNN(b, b.Inputs(3), []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	b.Output(outs...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGoldenPlans pins Schedule.Describe for the benchmark circuits,
// before and after optimization, against committed fixtures. The
// optimized plans double as a regression floor on what the pipeline
// achieves: if a pass stops firing, the pass table and PBS counts move.
func TestGoldenPlans(t *testing.T) {
	cases := []struct {
		name  string
		build func(*testing.T) *sched.Circuit
		cfg   sched.Config
	}{
		{"adder4_naive", adderCircuit4, sched.Config{}},
		{"mul3_naive", mulCircuit3, sched.Config{}},
		{"mul3_optimized", mulCircuit3, sched.Config{Opt: sched.OptAll()}},
		{"nn_naive", nnCircuit, sched.Config{}},
		{"nn_optimized", nnCircuit, sched.Config{Opt: sched.OptAll()}},
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
