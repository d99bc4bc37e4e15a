package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/tfhe"
)

// The optimizer semantics-preservation property: for seeded random typed
// DAGs, each pass individually and the full pipeline preserve the
// decoded outputs of the unoptimized schedule. Unlike randomCircuit
// (shape-only, compared bitwise), the generator here tracks each wire's
// domain — boolean or a message space — and its plaintext value, so the
// decoded comparison is meaningful: LUTs only read message wires, gates
// only boolean wires, and linear nodes only take domain-safe forms.

// propSpace is the message space of the generator's integer wires.
const propSpace = 8

// typedWire is one generated wire with its tracked plaintext.
type typedWire struct {
	w      Wire
	isBool bool
	bval   bool
	mval   int // message in {0..propSpace-1} when !isBool
}

// typedCircuit is a generated circuit plus the expected plaintext of
// every output.
type typedCircuit struct {
	circ    *Circuit
	inBools []bool
	inMsgs  []int // parallel to circ inputs: >= 0 is a message, -1 a bool
	outs    []typedWire
}

// genTypedCircuit grows a random typed DAG: boolean and message inputs,
// gates and NOT chains over booleans, LUTs / multi-LUT groups / modular
// linear sums over messages — including deliberate duplicate nodes (CSE
// food), single-consumer chains (fusion food), and same-input LUT
// fan-out (packing food). Every wire's plaintext is tracked alongside.
func genTypedCircuit(rng *rand.Rand, steps int) *typedCircuit {
	tc := &typedCircuit{}
	b := NewBuilder()
	var bools, msgs []typedWire
	nb, nm := 2+rng.Intn(3), 2+rng.Intn(3)
	for i := 0; i < nb; i++ {
		v := rng.Intn(2) == 0
		bools = append(bools, typedWire{w: b.Input(), isBool: true, bval: v})
		tc.inBools = append(tc.inBools, v)
		tc.inMsgs = append(tc.inMsgs, -1)
	}
	for i := 0; i < nm; i++ {
		v := rng.Intn(propSpace)
		msgs = append(msgs, typedWire{w: b.Input(), mval: v})
		tc.inBools = append(tc.inBools, false)
		tc.inMsgs = append(tc.inMsgs, v)
	}
	pickB := func() typedWire { return bools[rng.Intn(len(bools))] }
	pickM := func() typedWire { return msgs[rng.Intn(len(msgs))] }
	ops := []engine.GateOp{engine.NAND, engine.AND, engine.OR, engine.NOR, engine.XOR, engine.XNOR}
	randTable := func() []int {
		tab := make([]int, propSpace)
		for m := range tab {
			tab[m] = rng.Intn(propSpace)
		}
		return tab
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(6) {
		case 0: // binary gate (sometimes a duplicate of the previous one)
			a, c := pickB(), pickB()
			op := ops[rng.Intn(len(ops))]
			w := b.Gate(op, a.w, c.w)
			bools = append(bools, typedWire{w: w, isBool: true, bval: op.Eval(a.bval, c.bval)})
			if rng.Intn(3) == 0 { // swapped-operand duplicate: CSE food
				w2 := b.Gate(op, c.w, a.w)
				bools = append(bools, typedWire{w: w2, isBool: true, bval: op.Eval(a.bval, c.bval)})
			}
		case 1: // NOT chain: fusion/linfold food
			a := pickB()
			w := not(b, not(b, not(b, a.w)))
			bools = append(bools, typedWire{w: w, isBool: true, bval: !a.bval})
		case 2: // plain LUT
			a := pickM()
			tab := randTable()
			w := b.LUT(a.w, propSpace, tab)[0]
			msgs = append(msgs, typedWire{w: w, mval: tab[a.mval]})
		case 3: // same-input LUT fan-out: packing food
			a := pickM()
			n := 2 + rng.Intn(3)
			for j := 0; j < n; j++ {
				tab := randTable()
				w := b.LUT(a.w, propSpace, tab)[0]
				msgs = append(msgs, typedWire{w: w, mval: tab[a.mval]})
			}
		case 4: // explicit multi-value group
			a := pickM()
			k := 2 + rng.Intn(2)
			tabs := make([][]int, k)
			for j := range tabs {
				tabs[j] = randTable()
			}
			ws := b.LUT(a.w, propSpace, tabs...)
			for j, w := range ws {
				msgs = append(msgs, typedWire{w: w, mval: tabs[j][a.mval]})
			}
		default: // domain-safe linear: in-range modular message sum via LUT pair
			// A raw sum of two messages can leave the space, so keep the
			// linear node a single-term copy (free) — still exercises
			// linfold/CSE on message wires.
			a := pickM()
			w := b.Lin(0, Term{W: a.w, C: 1})
			msgs = append(msgs, typedWire{w: w, mval: a.mval})
		}
	}
	// Output a random selection (always at least one of each domain).
	tc.outs = append(tc.outs, bools[rng.Intn(len(bools))], msgs[rng.Intn(len(msgs))])
	for i := 0; i < 4; i++ {
		if rng.Intn(2) == 0 {
			tc.outs = append(tc.outs, pickB())
		} else {
			tc.outs = append(tc.outs, pickM())
		}
	}
	for _, o := range tc.outs {
		b.Output(o.w)
	}
	circ, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("generator built an invalid circuit: %v", err))
	}
	tc.circ = circ
	return tc
}

// encryptInputs encrypts the tracked input plaintexts.
func (tc *typedCircuit) encryptInputs(rng *rand.Rand) []tfhe.LWECiphertext {
	ins := make([]tfhe.LWECiphertext, len(tc.inMsgs))
	for i := range ins {
		if tc.inMsgs[i] >= 0 {
			ins[i] = encMsg(rng, tc.inMsgs[i], propSpace)
		} else {
			ins[i] = encBool(rng, tc.inBools[i])
		}
	}
	return ins
}

// checkDecoded asserts every output decodes to its tracked plaintext.
func (tc *typedCircuit) checkDecoded(t *testing.T, label string, outs []tfhe.LWECiphertext) {
	t.Helper()
	if len(outs) != len(tc.outs) {
		t.Fatalf("%s: %d outputs, want %d", label, len(outs), len(tc.outs))
	}
	for i, o := range tc.outs {
		if o.isBool {
			if got := testSK.DecryptBool(outs[i]); got != o.bval {
				t.Fatalf("%s: output %d decodes to %v, want %v", label, i, got, o.bval)
			}
		} else {
			if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[i]), propSpace); got != o.mval {
				t.Fatalf("%s: output %d decodes to %d, want %d", label, i, got, o.mval)
			}
		}
	}
}

// TestOptimizePassesPreserveDecoding is the property test: each pass
// alone and the full pipeline preserve decoded outputs on random typed
// DAGs, executed both sequentially and through the engine-backed
// scheduler (run under -race by `make race`), and the pipeline never
// turns a circuit the one noise rule admits into one it refuses.
func TestOptimizePassesPreserveDecoding(t *testing.T) {
	runner := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	passes := []struct {
		name string
		run  func(*Circuit) (*Circuit, int)
	}{
		{"prune", passPrune},
		{"linfold", passLinFold},
		{"fuse", passFuse},
		{"cse", func(c *Circuit) (*Circuit, int) { return passCSE(c, tfhe.Params{}) }},
		{"mvpack", func(c *Circuit) (*Circuit, int) { return passMultiValue(c, tfhe.ParamsTest) }},
	}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(4100 + int64(trial)))
		tc := genTypedCircuit(rng, 8+rng.Intn(8))
		requireOptimizedAdmitted(t, tc.circ)
		ins := tc.encryptInputs(rng)
		// Sanity: the unoptimized circuit matches the tracked plaintexts.
		tc.checkDecoded(t, "unoptimized", seqBits(t, tc.circ, ins))
		naivePBS := pbsCost(tc.circ)
		// check runs oc sequentially and sch, a schedule of c, on the
		// engine.
		check := func(name string, oc, c *Circuit, sch *Schedule) {
			t.Helper()
			if got := pbsCost(oc); got > naivePBS {
				t.Fatalf("trial %d %s: optimized PBS %d exceeds naive %d", trial, name, got, naivePBS)
			}
			tc.checkDecoded(t, fmt.Sprintf("trial %d %s sequential", trial, name), seqBits(t, oc, ins))
			outs, err := Execute(c, sch, ins, runner)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			tc.checkDecoded(t, fmt.Sprintf("trial %d %s scheduled", trial, name), outs)
		}
		for _, p := range passes {
			oc, _ := mustPass(t, tc.circ, p.run)
			sch, err := Compile(oc, Config{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.name, err)
			}
			check(p.name, oc, oc, sch)
		}
		oc, _ := mustOptimize(t, tc.circ, optTest())
		sch, err := Compile(tc.circ, Config{Opt: optTest()})
		if err != nil {
			t.Fatalf("trial %d all: %v", trial, err)
		}
		check("all", oc, tc.circ, sch)
	}
}

// requireOptimizedAdmitted asserts, at the test set and at set I, that
// Compile for the set returns exactly the one noise rule's verdict on the
// optimized plan, and that the rule admits c optimized for the set
// whenever it admits c. Where the rule refuses c, the optimized plan may
// be refused too. The converse does not hold: prune drops dead lookups
// the rule refuses.
func requireOptimizedAdmitted(t *testing.T, c *Circuit) {
	t.Helper()
	naive, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []tfhe.Params{tfhe.ParamsTest, tfhe.ParamsI} {
		opt := OptAll()
		opt.Params = p
		oc, _, err := Optimize(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		verdict := noise.Check(p, oc.budget()...)
		if _, err := Compile(c, Config{Opt: opt}); fmt.Sprint(err) != fmt.Sprint(verdict) {
			t.Fatalf("set %s: Compile returned %v, the rule's verdict is %v", p.Name, err, verdict)
		}
		if verdict != nil && naive.Check(p) == nil {
			s, _ := Compile(oc, Config{})
			t.Fatalf("set %s: the rule admits the circuit but refuses it optimized: %v\n%s", p.Name, verdict, s.Describe())
		}
	}
}

// TestFuseRaisesNoLoad pins why passFuse needs no noise-rule call: over
// the seeded typed circuits above, no bootstrap of the fused circuit reads
// a larger input load than the largest a bootstrap of the unfused circuit
// reads, at every standard set and the test set. A LUT∘LUT fusion reads
// the inner lookup's input, and a fused gate the base wires its producer
// read, so a fused load is one the circuit already carried.
func TestFuseRaisesNoLoad(t *testing.T) {
	largest := func(c *Circuit, a noise.Analyzer) float64 {
		v := 0.0
		for _, b := range c.budget() {
			v = max(v, b.In.Fresh*a.FreshLWEVariance()+b.In.Boot*a.BootstrapOutputVariance())
		}
		return v
	}
	fused := 0
	for seed := int64(4100); seed < 4164; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genTypedCircuit(rng, 8+rng.Intn(8)).circ
		oc, n := mustPass(t, c, passFuse)
		fused += n
		for _, p := range append(tfhe.StandardSets(), tfhe.ParamsTest) {
			a := noise.Analyzer{P: p}
			if got, bound := largest(oc, a), largest(c, a); got > bound {
				t.Errorf("seed %d set %s: fused circuit's largest PBS input variance %.3g exceeds the unfused %.3g", seed, p.Name, got, bound)
			}
		}
	}
	if fused == 0 {
		t.Fatal("no seed fused a node: the property was not exercised")
	}
}
