package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/tfhe"
)

// The optimizer semantics-preservation property: for seeded random typed
// DAGs, each pass individually and the full pipeline preserve the
// decoded outputs of the unoptimized schedule. Unlike randomCircuit
// (shape-only, compared bitwise), the generator here tracks each wire's
// domain — boolean or a message space — and its plaintext value, so the
// decoded comparison is meaningful: LUTs only read message wires, gates
// only boolean wires, and linear nodes only take domain-safe forms.

// propSpace is the message space of the generator's integer wires. With
// ParamsTest (N=256) a packed group of up to DefaultPackWidth outputs
// stays within space·k ≤ N.
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
			w := b.Not(b.Not(b.Not(a.w)))
			bools = append(bools, typedWire{w: w, isBool: true, bval: !a.bval})
		case 2: // plain LUT
			a := pickM()
			tab := randTable()
			w := b.LUT(a.w, propSpace, tab)
			msgs = append(msgs, typedWire{w: w, mval: tab[a.mval]})
		case 3: // same-input LUT fan-out: packing food
			a := pickM()
			n := 2 + rng.Intn(3)
			for j := 0; j < n; j++ {
				tab := randTable()
				w := b.LUT(a.w, propSpace, tab)
				msgs = append(msgs, typedWire{w: w, mval: tab[a.mval]})
			}
		case 4: // explicit multi-value group
			a := pickM()
			k := 2 + rng.Intn(2)
			tabs := make([][]int, k)
			for j := range tabs {
				tabs[j] = randTable()
			}
			ws := b.MultiLUT(a.w, propSpace, tabs)
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
// scheduler (run under -race by `make race`).
func TestOptimizePassesPreserveDecoding(t *testing.T) {
	runner := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	configs := []struct {
		name string
		opt  OptConfig
	}{
		{"prune", OptConfig{Prune: true}},
		{"linfold", OptConfig{LinFold: true}},
		{"fuse", OptConfig{Fuse: true}},
		{"cse", OptConfig{CSE: true}},
		{"mvpack", OptConfig{MultiValue: 3}},
		{"all", OptAll()},
	}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(4100 + int64(trial)))
		tc := genTypedCircuit(rng, 8+rng.Intn(8))
		ins := tc.encryptInputs(rng)
		// Sanity: the unoptimized circuit matches the tracked plaintexts.
		tc.checkDecoded(t, "unoptimized", seqBits(t, tc.circ, ins))
		naivePBS := pbsCost(tc.circ)
		for _, cfg := range configs {
			oc, _ := mustOptimize(t, tc.circ, cfg.opt)
			if got := pbsCost(oc); got > naivePBS {
				t.Fatalf("trial %d %s: optimized PBS %d exceeds naive %d", trial, cfg.name, got, naivePBS)
			}
			tc.checkDecoded(t, fmt.Sprintf("trial %d %s sequential", trial, cfg.name), seqBits(t, oc, ins))
			sch, err := Compile(tc.circ, Config{Opt: cfg.opt})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, cfg.name, err)
			}
			outs, err := runner.RunSchedule(tc.circ, sch, ins)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, cfg.name, err)
			}
			tc.checkDecoded(t, fmt.Sprintf("trial %d %s scheduled", trial, cfg.name), outs)
		}
	}
}
