package sched

import (
	"errors"
	"reflect"
	"slices"
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
	lut := b.LUT(pair, 16, make([]int, 16))[0]                // node 3
	xor := b.Gate(engine.XOR, lut, b.Gate(engine.NOT, x, -1)) // NOT is linear: node 4; XOR node 5
	ws := b.LUT(b.Lin(0, Term{W: lut, C: 2}, Term{W: xor, C: -1}), 8, make([]int, 8), make([]int, 8))
	b.Output(ws...)
	b.Output(b.LUT(pair, 16, make([]int, 16))...) // lut's requirement again: recorded once
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
	c, lut := wideLUTCircuit(t)
	s, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex := fakeExec{call: func(Dispatch) error {
		t.Error("a refused circuit dispatched")
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

// wideLUTCircuit returns TestCheckRefusesBeforeDispatch's circuit, whose
// space-32 lookup at node lut the test set refuses and set IV admits.
func wideLUTCircuit(t *testing.T) (*Circuit, Wire) {
	t.Helper()
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	g := b.Gate(engine.AND, x, y)
	lut := b.LUT(b.Lin(0, Term{W: g, C: 1}, Term{W: x, C: 1}), 32, make([]int, 32))[0]
	b.Output(lut)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, lut
}

// setExec is fakeExec computing under parameter set p.
type setExec struct {
	fakeExec
	p tfhe.Params
}

func (e setExec) Params() tfhe.Params { return e.p }

// TestCompileRecordsTheAdmittingSet: given Config.Opt.Params, Compile
// applies the one noise rule under that set and records it, and Execute
// trusts the record for that set alone. A schedule compiled for set IV,
// which admits it, runs on a set-IV executor and is checked again, and
// refused, on a test-set one; compiled for the test set, Compile returns
// the refusal alone. A schedule compiled without a set is checked on any
// executor, one without a set of its own too, which the rule refuses.
func TestCompileRecordsTheAdmittingSet(t *testing.T) {
	c, lut := wideLUTCircuit(t)
	ex := fakeExec{call: func(Dispatch) error { return nil }}
	s, err := Compile(c, Config{Opt: OptConfig{Params: tfhe.ParamsIV}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(c, s, placeholders(2), setExec{ex, tfhe.ParamsIV}); err != nil {
		t.Errorf("set IV schedule on a set IV executor: %v", err)
	}
	var budget *noise.BudgetError
	if _, err := Execute(c, s, placeholders(2), ex); !errors.As(err, &budget) || budget.Node != int(lut) || budget.Set != "test" {
		t.Errorf("set IV schedule on a test-set executor: %v, want a noise refusal at node %d", err, lut)
	}
	if s, err := Compile(c, Config{Opt: OptConfig{Params: tfhe.ParamsTest}}); !errors.As(err, &budget) || s != nil {
		t.Errorf("Compile for the test set: %v, %v; want the refusal alone", s, err)
	}
	s, err = Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(c, s, placeholders(2), setExec{ex, tfhe.Params{}}); err == nil {
		t.Error("a schedule compiled without a set ran on an executor without one")
	}
}

// TestPackingStaysInBudget: packing builds only groups the one noise
// rule admits at their input's load under the executing parameter set.
// Four space-8 tables on a fresh input at the test set would decide at
// 1/128 (2.4σ, refused); three decide at 1/96 (3.2σ), so the fan-out
// packs 3 + 1. Space-16 tables refuse even pairs, so they stay plain, and
// the optimized circuit passes the check the unoptimized one does.
// Without a parameter set the rule cannot be evaluated: nothing packs.
func TestPackingStaysInBudget(t *testing.T) {
	for _, tc := range []struct{ space, cost int }{{8, 2}, {16, 4}} {
		b := NewBuilder()
		in := b.Input()
		for _, tab := range mvTables(tc.space, 4) {
			b.Output(b.LUT(in, tc.space, tab)...)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if oc, _ := mustOptimize(t, c, OptAll()); pbsCost(oc) != 4 {
			t.Fatalf("space %d without Params: %d PBS, want 4 plain LUTs", tc.space, pbsCost(oc))
		}
		opt := optTest()
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

// TestRepeatedTermsChargedExactly: a PBS input is charged from its linear
// form flattened over base wires, so a wire repeated in a sum counts with
// its merged coefficient. Lin(g, g, g, g) is 4·g and carries 16·L(g), as
// Lin(4·g) does; both put an 8-space lookup at set I at 1.8σ, which the
// rule refuses. A gate on (w, w) computes 2w, which carries 4·L(w).
func TestRepeatedTermsChargedExactly(t *testing.T) {
	build := func(terms ...Term) (*Circuit, Wire) {
		b := NewBuilder()
		g := b.LUT(b.Input(), 8, make([]int, 8))[0]
		for i := range terms {
			terms[i].W = g
		}
		lut := b.LUT(b.Lin(0, terms...), 8, make([]int, 8))[0]
		b.Output(lut)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c, lut
	}
	want := noise.PBS{In: noise.Load{Boot: 16}, Space: 8, K: 1}
	for _, tc := range []struct {
		name  string
		terms []Term
	}{
		{"split", []Term{{C: 1}, {C: 1}, {C: 1}, {C: 1}}},
		{"merged", []Term{{C: 4}}},
		{"mixed", []Term{{C: 3}, {C: 2}, {C: -1}}},
	} {
		c, lut := build(tc.terms...)
		s, err := Compile(c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want.Node = int(lut)
		if got := s.pbs[len(s.pbs)-1]; got != want {
			t.Errorf("%s: requirement %+v, want %+v", tc.name, got, want)
		}
		var budget *noise.BudgetError
		if err := s.Check(tfhe.ParamsI); !errors.As(err, &budget) || budget.Node != int(lut) || budget.Sigmas > 1.9 || budget.Failure < 0.07 {
			t.Errorf("%s: set I check = %v, want a refusal at node %d predicting 1.8σ", tc.name, err, lut)
		}
	}

	b := NewBuilder()
	x := b.Input()
	g := b.Gate(engine.AND, x, x)
	xor := b.Gate(engine.XOR, g, b.Gate(engine.NOT, g, -1))
	b.Output(xor)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// XOR(g, NOT g) reads g - g: the noise cancels with the message.
	wantGates := []noise.PBS{{Node: int(g), In: noise.Load{Fresh: 4}}, {Node: int(xor)}}
	if !reflect.DeepEqual(s.pbs, wantGates) {
		t.Errorf("gate budget = %+v, want %+v", s.pbs, wantGates)
	}
}

// TestOptimizeKeepsAdmittedCircuits: merging duplicate bootstraps that one
// sum reads raises its load (four lookups summed carry 4·L, their merged
// copy 4·g carries 16·L), so under a parameter set that admits the sum
// and refuses the merge, Optimize drops the CSE rewrite and the circuit
// stays admitted. At set I the four lookups pack into one group instead;
// at the test set, which admits both, CSE merges them.
func TestOptimizeKeepsAdmittedCircuits(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	tab := []int{1, 2, 3, 4, 5, 6, 7, 0}
	terms := make([]Term, 4)
	for i := range terms {
		terms[i] = Term{W: b.LUT(x, 8, tab)[0], C: 1}
	}
	b.Output(b.LUT(b.Lin(0, terms...), 8, tab)...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p   tfhe.Params
		cse bool
	}{{tfhe.ParamsI, false}, {tfhe.ParamsTest, true}} {
		opt := OptAll()
		opt.Params = tc.p
		s, err := Compile(c, Config{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Check(tc.p); err != nil {
			t.Errorf("set %s: optimized circuit refused: %v\n%s", tc.p.Name, err, s.Describe())
		}
		cse := slices.ContainsFunc(s.Stats().OptPasses, func(p PassStat) bool { return p.Name == "cse" })
		if cse != tc.cse || s.Stats().TotalPBS != 2 {
			t.Errorf("set %s: plan %v (cse ran: %v), want 2 PBS with cse %v", tc.p.Name, s, cse, tc.cse)
		}
	}
}

// TestCSEKeepsAdmittedMerges: CSE keeps each merge the rule admits and
// drops only those it refuses. Beside the four summed lookups, whose
// merge set I refuses, AND(u, v) and AND(v, u) merge: at set I the plan
// is the packed lookups, the lookup of their sum and one gate, 3 PBS.
func TestCSEKeepsAdmittedMerges(t *testing.T) {
	b := NewBuilder()
	x, u, v := b.Input(), b.Input(), b.Input()
	tab := []int{1, 2, 3, 4, 5, 6, 7, 0}
	terms := make([]Term, 4)
	for i := range terms {
		terms[i] = Term{W: b.LUT(x, 8, tab)[0], C: 1}
	}
	b.Output(b.LUT(b.Lin(0, terms...), 8, tab)[0], b.Gate(engine.AND, u, v), b.Gate(engine.AND, v, u))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := OptAll()
	opt.Params = tfhe.ParamsI
	s, err := Compile(c, Config{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	cse := slices.IndexFunc(s.Stats().OptPasses, func(p PassStat) bool { return p.Name == "cse" })
	if st := s.Stats(); st.TotalPBS != 3 || cse < 0 || st.OptPasses[cse].Rewrites != 1 {
		t.Errorf("set I plan:\n%s want 3 PBS, one cse merge", s.Describe())
	}
}
