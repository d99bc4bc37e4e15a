package sched

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/tfhe"
)

// TestBudgetPropagation pins the requirements Compile records, each
// distinct one once: an input is fresh, a linear node carries Σ c² times
// its operands' loads, a gate's pre-stage the sum of its operands' loads
// (XOR too), and every PBS output is bootstrapped, whatever its input
// carried.
func TestBudgetPropagation(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	pair := b.Lin(0, Term{W: x, C: 1}, Term{W: y, C: 4})      // 17 fresh
	lut := b.LUT(pair, 16, make([]int, 16))                   // node 3
	xor := b.Gate(engine.XOR, lut, b.Gate(engine.NOT, x, -1)) // NOT is linear: node 4; XOR node 5
	ws := b.MultiLUT(b.Lin(0, Term{W: lut, C: 2}, Term{W: xor, C: -1}), 8, [][]int{make([]int, 8), make([]int, 8)})
	b.Output(ws...)
	b.Output(b.LUT(pair, 16, make([]int, 16))) // lut's requirement again: recorded once
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []noise.PBS{
		{Node: int(lut), In: noise.Load{Fresh: 17}, Space: 16, K: 1},
		{Node: int(xor), In: noise.Load{Fresh: 1, Boot: 1}},
		{Node: int(ws[0]), In: noise.Load{Boot: 5}, Space: 8, K: 2},
	}
	s, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.pbs, want) {
		t.Errorf("budget = %+v, want %+v", s.pbs, want)
	}

	// XOR doubles its operands and the distance its values keep from the
	// sign boundary alike, so set III, whose gates on bootstrapped inputs
	// predict 5·10⁻⁵, admits XOR and XNOR on them too.
	b = NewBuilder()
	u, v := b.Input(), b.Input()
	and, or := b.Gate(engine.AND, u, v), b.Gate(engine.OR, u, v)
	b.Output(b.Gate(engine.XOR, and, or), b.Gate(engine.XNOR, and, or))
	if c, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	if s, err = Compile(c, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(tfhe.ParamsIII); err != nil {
		t.Errorf("XOR on bootstrapped inputs at set III: %v", err)
	}
}

// TestCheckRefusesBeforeDispatch: Execute and RunSequential apply the one
// noise rule under their executor's parameter set before any PBS runs. A
// space-32 lookup on a fresh input has a margin of 1/128, which the test
// set's modulus switch leaves at 2.4σ.
func TestCheckRefusesBeforeDispatch(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	g := b.Gate(engine.AND, x, y)
	lut := b.LUT(b.Lin(0, Term{W: g, C: 1}, Term{W: x, C: 1}), 32, make([]int, 32))
	b.Output(lut)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex := fakeExec{gate: func(Dispatch) error {
		t.Error("a refused circuit dispatched a gate")
		return nil
	}}
	requireBudgetError := func(path string, err error) {
		t.Helper()
		var budget *noise.BudgetError
		if !errors.As(err, &budget) || budget.Node != int(lut) || budget.Set != "test" || budget.Failure <= noise.MaxFailure {
			t.Errorf("%s: got %v, want a noise refusal at node %d", path, err, lut)
		}
	}
	_, err = Execute(c, s, placeholders(2), ex)
	requireBudgetError("Execute", err)
	ev := tfhe.NewEvaluator(tfhe.EvaluationKeys{Params: tfhe.ParamsTest})
	_, err = RunSequential(c, ev, placeholders(2))
	requireBudgetError("RunSequential", err)

	// Set IV leaves the same lookup 80σ; the check admits it and
	// allocates nothing doing so.
	if err := s.Check(tfhe.ParamsIV); err != nil {
		t.Errorf("set IV: %v", err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = s.Check(tfhe.ParamsIV) }); n != 0 {
		t.Errorf("an admitting Check allocates %v times", n)
	}
}

// TestPackingStaysInBudget: with the executing parameter set known,
// packing builds only groups the one noise rule admits at their input's
// load. Four space-8 tables on a fresh input at the test set would decide
// at 1/128 (2.4σ, refused); three decide at 1/96 (3.2σ), so the fan-out
// packs 3 + 1. Space-16 tables refuse even pairs, so they stay plain, and
// the optimized circuit passes the check the unoptimized one does.
func TestPackingStaysInBudget(t *testing.T) {
	for _, tc := range []struct{ space, cost int }{{8, 2}, {16, 4}} {
		b := NewBuilder()
		in := b.Input()
		for _, tab := range mvTables(tc.space, 4) {
			b.Output(b.LUT(in, tc.space, tab))
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if oc, _ := mustOptimize(t, c, OptConfig{MultiValue: 4}); pbsCost(oc) != 1 {
			t.Fatalf("space %d without Params: %d PBS, want one group of 4", tc.space, pbsCost(oc))
		}
		opt := OptConfig{MultiValue: 4, Params: tfhe.ParamsTest}
		if oc, _ := mustOptimize(t, c, opt); pbsCost(oc) != tc.cost {
			t.Errorf("space %d with Params: %d PBS, want %d", tc.space, pbsCost(oc), tc.cost)
		}
		s, err := Compile(c, Config{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Check(tfhe.ParamsTest); err != nil {
			t.Errorf("space %d: packed schedule refused: %v", tc.space, err)
		}
	}
}
