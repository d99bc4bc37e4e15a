package sched

import (
	"math/rand"
	"testing"

	"repro/internal/tfhe"
)

// Stats-composition audit: when LUT-chain fusion and the multi-value
// rewrite compose — a fused LUT then packs into a shared rotation —
// Stats.MultiValueOuts / Stats.RotationsSaved must account for the
// packed groups of the FINAL circuit, and the per-pass PBSRemoved
// entries must sum to the naive-minus-optimized rotation delta with no
// double counting between the two mechanisms.

// statsTables builds distinct space-8 tables so merged dispatches can't
// mask grouping bugs.
func statsTables(space, n int) [][]int {
	tabs := make([][]int, n)
	for i := range tabs {
		tabs[i] = make([]int, space)
		for m := range tabs[i] {
			tabs[i][m] = (m*m + 3*i + 1) % space
		}
	}
	return tabs
}

// TestStatsFusionThenPacking pins the nested case: x→L1→L2 is a
// single-consumer chain (fuses to one composed LUT on x) that then
// packs with two sibling LUTs L3, L4 reading x directly. Naive: 4
// rotations over 2 levels. Optimized: one 3-output multi-value group —
// 1 rotation, 1 level.
func TestStatsFusionThenPacking(t *testing.T) {
	const space = 8
	tabs := statsTables(space, 4)
	b := NewBuilder()
	x := b.Input()
	mid := b.LUT(x, space, tabs[0])      // L1, single consumer
	b.Output(b.LUT(mid, space, tabs[1])) // L2: fuses into L2∘L1 on x
	b.Output(b.LUT(x, space, tabs[2]))   // L3
	b.Output(b.LUT(x, space, tabs[3]))   // L4
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	naive, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Stats().TotalPBS != 4 || naive.Stats().Levels != 2 {
		t.Fatalf("naive plan: %v, want 4 PBS over 2 levels", naive)
	}

	s, err := Compile(c, Config{Opt: optTest()})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TotalPBS != 1 || st.Levels != 1 {
		t.Fatalf("optimized plan: %v, want 1 PBS over 1 level", s)
	}
	// The packed group of the final circuit: 3 outputs from 1 rotation.
	if st.MultiValueOuts != 3 || st.RotationsSaved != 2 {
		t.Fatalf("MultiValueOuts=%d RotationsSaved=%d, want 3 and 2", st.MultiValueOuts, st.RotationsSaved)
	}
	// Pass accounting: fuse removed L1's rotation (chain collapse),
	// mvpack removed 2 more (3 LUTs → one group). Sum must equal the
	// naive-minus-optimized delta exactly — no double counting.
	byName := make(map[string]PassStat)
	for _, p := range st.OptPasses {
		byName[p.Name] = p
	}
	if total := s.optPBSRemoved(); total != naive.Stats().TotalPBS-st.TotalPBS {
		t.Fatalf("optPBSRemoved=%d, want %d", total, naive.Stats().TotalPBS-st.TotalPBS)
	}
	if fuse := byName["fuse"].PBSRemoved + byName["prune"].PBSRemoved; fuse != 1 {
		t.Fatalf("fuse+prune removed %d PBS, want 1 (the chained L1)", fuse)
	}
	if mv := byName["mvpack"].PBSRemoved; mv != 2 {
		t.Fatalf("mvpack removed %d PBS, want 2", mv)
	}

	// Decode identity against the unoptimized circuit.
	rng := rand.New(rand.NewSource(99))
	for m := 0; m < space; m += 3 {
		ins := []tfhe.LWECiphertext{encMsg(rng, m, space)}
		outs := seqBits(t, mustOptimizedCircuit(t, c), ins)
		want := []int{tabs[1][tabs[0][m]], tabs[2][m], tabs[3][m]}
		for i, w := range want {
			if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[i]), space); got != w {
				t.Fatalf("m=%d output %d: got %d, want %d", m, i, got, w)
			}
		}
	}
}

// mustOptimizedCircuit runs the full pipeline for the test set and
// returns the circuit.
func mustOptimizedCircuit(t *testing.T, c *Circuit) *Circuit {
	t.Helper()
	oc, _ := mustOptimize(t, c, optTest())
	return oc
}

// optTest is the pipeline packing for the test set, the one the package
// keys run under.
func optTest() OptConfig {
	opt := OptAll()
	opt.Params = tfhe.ParamsTest
	return opt
}

// TestStatsExplicitGroupsAndPackingCoexist mixes an explicit
// Builder.MultiLUT group with packable plain fan-out on the same input:
// the explicit group keeps its shape, the plain LUTs pack separately,
// and the multi-value stats cover both groups.
func TestStatsExplicitGroupsAndPackingCoexist(t *testing.T) {
	const space = 8
	tabs := statsTables(space, 5)
	b := NewBuilder()
	x := b.Input()
	for _, w := range b.MultiLUT(x, space, tabs[:2]) { // explicit k=2 group
		b.Output(w)
	}
	for _, tab := range tabs[2:] { // 3 plain LUTs: packing food
		b.Output(b.LUT(x, space, tab))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	s, err := Compile(c, Config{Opt: optTest()})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// One rotation for the explicit pair, one for the packed trio.
	if st.TotalPBS != 2 {
		t.Fatalf("optimized plan: %v, want 2 PBS", s)
	}
	if st.MultiValueOuts != 5 || st.RotationsSaved != 3 {
		t.Fatalf("MultiValueOuts=%d RotationsSaved=%d, want 5 and 3", st.MultiValueOuts, st.RotationsSaved)
	}
	// Only packing shows up in the pass table: the explicit group's
	// saving is the builder's, not the optimizer's.
	if total := s.optPBSRemoved(); total != 2 {
		t.Fatalf("optimizer removed %d PBS, want 2 (pack 3 plain LUTs into 1 rotation)", total)
	}

	rng := rand.New(rand.NewSource(101))
	for m := 0; m < space; m += 2 {
		ins := []tfhe.LWECiphertext{encMsg(rng, m, space)}
		outs := seqBits(t, mustOptimizedCircuit(t, c), ins)
		for i, tab := range tabs {
			if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[i]), space); got != tab[m] {
				t.Fatalf("m=%d output %d: got %d, want %d", m, i, got, tab[m])
			}
		}
	}
}

// TestPackWidthFollowsRule pins that the one noise rule alone sets how
// wide packing goes, visible in the multi-value stats. Five space-8 LUTs
// share an input at set I: on a fresh input the rule admits four tables,
// so they pack as (4, 1); on a bootstrapped input it admits two, so they
// pack as (2, 2, 1); without a parameter set nothing packs.
func TestPackWidthFollowsRule(t *testing.T) {
	const space = 8
	tabs := statsTables(space, 5)
	build := func(boot bool) *Circuit {
		b := NewBuilder()
		x := b.Input()
		if boot {
			x = b.LUT(x, space, tabs[0])
		}
		for _, tab := range tabs {
			b.Output(b.LUT(x, space, tab))
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name          string
		boot          bool
		params        tfhe.Params
		pbs, outs, mv int // total PBS, multi-value outputs, mvpack PBSRemoved
	}{
		{"fresh set I", false, tfhe.ParamsI, 2, 4, 3},
		{"bootstrapped set I", true, tfhe.ParamsI, 4, 4, 2},
		{"no params", false, tfhe.Params{}, 5, 0, 0},
	} {
		opt := OptAll()
		opt.Params = tc.params
		s, err := Compile(build(tc.boot), Config{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.TotalPBS != tc.pbs || st.MultiValueOuts != tc.outs || st.RotationsSaved != tc.mv {
			t.Errorf("%s: plan %v with %d multi-value outputs, want %d PBS and %d outputs", tc.name, s, st.MultiValueOuts, tc.pbs, tc.outs)
		}
		mv := 0
		for _, p := range st.OptPasses {
			if p.Name == "mvpack" {
				mv = p.PBSRemoved
			}
		}
		if mv != tc.mv {
			t.Errorf("%s: mvpack removed %d PBS, want %d", tc.name, mv, tc.mv)
		}
		if tc.params.N > 0 {
			if err := s.Check(tc.params); err != nil {
				t.Errorf("%s: packed plan refused: %v", tc.name, err)
			}
		}
	}
}
