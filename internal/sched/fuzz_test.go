package sched

import (
	"encoding/json"
	"testing"
)

// fuzzCircuitJSON is the fuzzed wire shape: the NodeSpec stream plus
// output indices the gate service's circuit-batch endpoint accepts.
type fuzzCircuitJSON struct {
	Nodes   []NodeSpec `json:"nodes"`
	Outputs []int      `json:"outputs"`
}

// FuzzOptimizePasses feeds arbitrary NodeSpec JSON through FromSpecs and
// the full optimizer pipeline. For every input that parses into a valid
// circuit, the pipeline must not panic, must produce a circuit that
// still compiles, must never increase the schedule's TotalPBS, must
// preserve the input/output counts, must be deterministic (optimizing
// twice yields byte-identical plans), and must keep a circuit the one
// noise rule admits at the test set or set I admitted when optimized for
// that set. Malformed specs must be rejected by FromSpecs with an error,
// never a panic.
func FuzzOptimizePasses(f *testing.F) {
	seeds := []string{
		// Gate chain with a dead branch and a swapped duplicate: fuse + cse + prune food.
		`{"nodes":[{"kind":"in"},{"kind":"in"},{"kind":"gate","op":"AND","a":0,"b":1},{"kind":"gate","op":"AND","a":1,"b":0},{"kind":"gate","op":"NAND","a":2,"b":3},{"kind":"gate","op":"XOR","a":0,"b":1}],"outputs":[4]}`,
		// Same-input LUT fan-out: packing food.
		`{"nodes":[{"kind":"in"},{"kind":"lut","in":0,"space":4,"tables":[[1,2,3,0]]},{"kind":"lut","in":0,"space":4,"tables":[[3,2,1,0]]},{"kind":"lut","in":0,"space":4,"tables":[[0,0,1,1]]}],"outputs":[1,2,3]}`,
		// LUT chain into a two-table group plus a linear chain: every pass fires.
		`{"nodes":[{"kind":"in"},{"kind":"lut","in":0,"space":4,"tables":[[1,2,3,0]]},{"kind":"lut","in":1,"space":4,"tables":[[3,0,1,2]]},{"kind":"lut","in":0,"space":4,"tables":[[0,1,2,3],[3,2,1,0]],"index":0},{"kind":"lut","in":0,"space":4,"tables":[[0,1,2,3],[3,2,1,0]],"index":1},{"kind":"lin","terms":[{"w":2,"c":1}]},{"kind":"lin","terms":[{"w":5,"c":1}]}],"outputs":[6,3,4]}`,
		// NOT chain degenerating to a copy.
		`{"nodes":[{"kind":"in"},{"kind":"gate","op":"NOT","a":0},{"kind":"gate","op":"NOT","a":1}],"outputs":[2]}`,
		// Constant-fold food: termless lin constant feeding a gate.
		`{"nodes":[{"kind":"in"},{"kind":"lin","k":536870912},{"kind":"gate","op":"AND","a":0,"b":1}],"outputs":[2]}`,
		// Malformed: sibling without a group head.
		`{"nodes":[{"kind":"in"},{"kind":"lut","in":0,"space":4,"tables":[[0,1,2,3],[3,2,1,0]],"index":1}],"outputs":[1]}`,
		// Malformed: forward reference.
		`{"nodes":[{"kind":"gate","op":"OR","a":0,"b":1},{"kind":"in"},{"kind":"in"}],"outputs":[0]}`,
		`{}`,
		// Sum of four identical lookups: CSE would turn it into 4·g, which
		// set I refuses where it admits the sum of four bootstraps.
		`{"nodes":[{"kind":"in"},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lin","terms":[{"w":1,"c":1},{"w":2,"c":1},{"w":3,"c":1},{"w":4,"c":1}]},{"kind":"lut","in":5,"space":8,"tables":[[0,1,2,3,4,5,6,7]]}],"outputs":[6]}`,
		// One input into a space-64 lookup: the rule refuses it at the
		// test set and set I, optimized or not.
		`{"nodes":[{"kind":"in"},{"kind":"lut","in":0,"space":64,"tables":[[0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7]]}],"outputs":[1]}`,
		// The summed lookups beside AND(u, v) and AND(v, u): CSE keeps the
		// gate merge, which every set admits, and drops the lookups' merge
		// where the rule refuses it.
		`{"nodes":[{"kind":"in"},{"kind":"in"},{"kind":"in"},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lut","in":0,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"lin","terms":[{"w":3,"c":1},{"w":4,"c":1},{"w":5,"c":1},{"w":6,"c":1}]},{"kind":"lut","in":7,"space":8,"tables":[[1,2,3,4,5,6,7,0]]},{"kind":"gate","op":"AND","a":1,"b":2},{"kind":"gate","op":"AND","a":2,"b":1}],"outputs":[8,9,10]}`,
		// An explicit head index on a one-table group feeding a same-space
		// LUT: a plain LUT chain, which fuse composes into one PBS.
		`{"nodes":[{"kind":"in"},{"kind":"lut","in":0,"space":4,"tables":[[1,2,3,0]],"index":0},{"kind":"lut","in":1,"space":4,"tables":[[3,3,0,1]]}],"outputs":[2]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec fuzzCircuitJSON
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		// Bound the work per input: the pipeline is superlinear in node
		// count and the fuzzer will happily explode slice lengths.
		if len(spec.Nodes) > 512 {
			return
		}
		for _, n := range spec.Nodes {
			if n.Space > 1<<12 || len(n.Terms) > 64 {
				return
			}
		}
		c, err := FromSpecs(spec.Nodes, spec.Outputs)
		if err != nil {
			return // malformed specs must error, not panic — reaching here is the check
		}
		naive, err := Compile(c, Config{})
		if err != nil {
			t.Fatalf("valid circuit failed unoptimized compile: %v", err)
		}
		s, err := Compile(c, Config{Opt: OptAll()})
		if err != nil {
			t.Fatalf("optimizer rejected a valid circuit: %v", err)
		}
		if s.Stats().TotalPBS > naive.Stats().TotalPBS {
			t.Fatalf("optimizer increased TotalPBS: %d > %d", s.Stats().TotalPBS, naive.Stats().TotalPBS)
		}
		oc, _, err := Optimize(c, OptAll())
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		if len(oc.inputs) != len(c.inputs) || len(oc.outputs) != len(c.outputs) {
			t.Fatalf("optimizer changed interface: %d/%d inputs, %d/%d outputs",
				len(oc.inputs), len(c.inputs), len(oc.outputs), len(c.outputs))
		}
		s2, err := Compile(c, Config{Opt: OptAll()})
		if err != nil {
			t.Fatalf("second optimized compile: %v", err)
		}
		if a, b := s.Describe(), s2.Describe(); a != b {
			t.Fatalf("optimizer is nondeterministic:\n%s\nvs\n%s", a, b)
		}
		requireOptimizedAdmitted(t, c)
	})
}
