package sched

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/torus"
)

var (
	testSK tfhe.SecretKeys
	testEK tfhe.EvaluationKeys
)

func init() {
	rng := rand.New(rand.NewSource(77))
	testSK, testEK = tfhe.GenerateKeys(rng, tfhe.ParamsTest)
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

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"gate bad wire", func(b *Builder) { b.Gate(engine.AND, 0, 5) }},
		{"gate bad op", func(b *Builder) { b.Gate(engine.GateOp(99), 0, 0) }},
		{"lut bad wire", func(b *Builder) { b.LUT(3, 4, []int{0, 1, 2, 3}) }},
		{"lut short table", func(b *Builder) { b.LUT(0, 4, []int{0, 1}) }},
		{"lut bad entry", func(b *Builder) { b.LUT(0, 4, []int{0, 1, 2, 4}) }},
		{"lut tiny space", func(b *Builder) { b.LUT(0, 1, []int{0}) }},
		{"lin bad term", func(b *Builder) { b.Lin(0, Term{W: 9, C: 1}) }},
		{"output bad wire", func(b *Builder) { b.Output(2) }},
		{"self reference", func(b *Builder) { b.Gate(engine.AND, 1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			b.Input()
			tc.build(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("expected build error")
			}
		})
	}
}

func TestCompileLevels(t *testing.T) {
	// Half adder + a LUT stage: two parallel gates at level 1, one at
	// level 2, one LUT at level 3.
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	s := b.Gate(engine.XOR, x, y)
	c := b.Gate(engine.AND, x, y)
	n := b.Gate(engine.NAND, s, c)
	sq := b.LUTFunc(n, 4, func(m int) int { return (m * m) % 4 })[0]
	b.Output(sq)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sch.Stats()
	if st.Levels != 3 || st.TotalPBS != 4 || st.MaxLevelPBS != 2 {
		t.Fatalf("stats = %+v, want 3 levels, 4 PBS, max 2", st)
	}
	// Level 1 is one dispatch: XOR and AND bootstrap against the same sign
	// test vector, so they share a batch, each node under its own op.
	lvl1 := sch.Levels()[0].Dispatches
	if len(lvl1) != 1 {
		t.Fatalf("level 1 has %d dispatches, want 1", len(lvl1))
	}
	if d := lvl1[0]; len(d.Nodes) != 2 || len(d.Ops) != 2 || d.Ops[0] != engine.XOR || d.Ops[1] != engine.AND {
		t.Fatalf("level 1 dispatch = nodes %v ops %v, want [XOR AND] in build order", d.Nodes, d.Ops)
	}
	if sch.String() == "" {
		t.Error("empty plan summary")
	}
}

func TestCompileGroupsLUTsByTable(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(4)
	sq := func(m int) int { return (m * m) % 8 }
	inc := func(m int) int { return (m + 1) % 8 }
	for i, w := range in {
		if i%2 == 0 {
			b.Output(b.LUTFunc(w, 8, sq)...)
		} else {
			b.Output(b.LUTFunc(w, 8, inc)...)
		}
	}
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lvl := sch.Levels()[0]
	if len(lvl.Dispatches) != 2 {
		t.Fatalf("got %d dispatches, want 2 (one per distinct table)", len(lvl.Dispatches))
	}
	for _, d := range lvl.Dispatches {
		if len(d.Nodes) != 2 {
			t.Errorf("dispatch has %d nodes, want 2", len(d.Nodes))
		}
	}
}

func TestNotLoweredToLinear(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	b.Output(not(b, x))
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sch.Stats(); st.TotalPBS != 0 || st.LinearNodes != 1 {
		t.Fatalf("NOT should be free: %+v", st)
	}
	ev := tfhe.NewEvaluator(testEK)
	rng := rand.New(rand.NewSource(1))
	ct := testSK.EncryptBool(rng, true)
	outs, err := Execute(circ, sch, []tfhe.LWECiphertext{ct}, &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if !sameCT(outs[0], ev.NOT(ct)) {
		t.Error("lowered NOT differs from evaluator NOT")
	}
}

// randomCircuit grows a seeded random DAG over boolean-ish wires mixing
// gates, LUTs (two distinct tables), and linear nodes — shape coverage
// for the equivalence property, not meaningful computation.
func randomCircuit(t *testing.T, rng *rand.Rand, inputs, extra int) *Circuit {
	t.Helper()
	b := NewBuilder()
	ws := b.Inputs(inputs)
	ops := []engine.GateOp{engine.NAND, engine.AND, engine.OR, engine.NOR, engine.XOR, engine.XNOR}
	for i := 0; i < extra; i++ {
		pick := func() Wire { return ws[rng.Intn(len(ws))] }
		var w Wire
		switch rng.Intn(4) {
		case 0:
			w = b.Gate(ops[rng.Intn(len(ops))], pick(), pick())
		case 1:
			w = b.LUTFunc(pick(), 8, func(m int) int { return (m * 3) % 8 })[0]
		case 2:
			w = b.LUTFunc(pick(), 8, func(m int) int { return (m + 5) % 8 })[0]
		default:
			w = b.Lin(torus.Torus32(rng.Uint32()),
				Term{W: pick(), C: 1}, Term{W: pick(), C: -1}, Term{W: pick(), C: 2})
		}
		ws = append(ws, w)
	}
	// Output the last few wires.
	for i := len(ws) - 3; i < len(ws); i++ {
		b.Output(ws[i])
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScheduledMatchesSequential is the core equivalence property: for
// random circuits, engine execution is bitwise identical to the
// sequential evaluator.
func TestScheduledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ev := tfhe.NewEvaluator(testEK)
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	circuits := make([]*Circuit, 4, 5)
	for i := range circuits {
		circuits[i] = randomCircuit(t, rng, 4, 12)
	}
	// The random circuits' levels are all narrow. One more circuit has a
	// level 32 wide, several tiles of one dispatch, feeding a narrow one.
	wb := NewBuilder()
	wins := wb.Inputs(32)
	wide := make([]Wire, len(wins))
	for i := range wins {
		wide[i] = wb.Gate(engine.NAND, wins[i], wins[(i+1)%len(wins)])
	}
	wb.Output(wb.Gate(engine.XOR, wide[0], wide[1]))
	wb.Output(wide[2])
	wideCirc, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sch, err := Compile(wideCirc, Config{}); err != nil || sch.Stats().Dispatches != 2 {
		t.Fatalf("wide circuit: err=%v, schedule %v, want 2 dispatches", err, sch)
	}
	circuits = append(circuits, wideCirc)
	for trial, circ := range circuits {
		ins := make([]tfhe.LWECiphertext, circ.NumInputs())
		for i := range ins {
			ins[i] = testSK.EncryptBool(rng, rng.Intn(2) == 0)
		}
		want, err := RunSequential(circ, ev, ins)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(circ, Config{}, ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d outputs, want %d", trial, len(got), len(want))
		}
		for k := range got {
			if !sameCT(got[k], want[k]) {
				t.Errorf("trial %d: output %d differs from sequential", trial, k)
			}
		}
	}
}

func TestSpecsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	circ := randomCircuit(t, rng, 3, 10)
	rebuilt, err := FromSpecs(circ.Specs(), circ.OutputWires())
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt.nodes) != len(circ.nodes) || len(rebuilt.outputs) != len(circ.outputs) {
		t.Fatal("roundtrip changed circuit shape")
	}
	ins := make([]tfhe.LWECiphertext, circ.NumInputs())
	for i := range ins {
		ins[i] = testSK.EncryptBool(rng, i%2 == 0)
	}
	ev := tfhe.NewEvaluator(testEK)
	want, err := RunSequential(circ, ev, ins)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSequential(rebuilt, ev, ins)
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if !sameCT(got[k], want[k]) {
			t.Errorf("output %d differs after spec roundtrip", k)
		}
	}
}

func TestFromSpecsRejectsInvalid(t *testing.T) {
	cases := []struct {
		name    string
		specs   []NodeSpec
		outputs []int
	}{
		{"unknown kind", []NodeSpec{{Kind: "bogus"}}, nil},
		{"unknown op", []NodeSpec{{Kind: SpecInput}, {Kind: SpecGate, Op: "FROB", A: 0, B: 0}}, nil},
		{"forward ref", []NodeSpec{{Kind: SpecInput}, {Kind: SpecGate, Op: "AND", A: 0, B: 2}}, nil},
		{"bad table", []NodeSpec{{Kind: SpecInput}, {Kind: SpecLUT, In: 0, Space: 4, Tables: [][]int{{0, 0, 0, 9}}}}, nil},
		{"bad output", []NodeSpec{{Kind: SpecInput}}, []int{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromSpecs(tc.specs, tc.outputs); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestExecuteInputCountMismatch(t *testing.T) {
	b := NewBuilder()
	b.Output(b.Input())
	circ, _ := b.Build()
	sch, _ := Compile(circ, Config{})
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 1})}
	if _, err := Execute(circ, sch, nil, r); err == nil {
		t.Error("input count mismatch should error")
	}
	if _, err := RunSequential(circ, tfhe.NewEvaluator(testEK), nil); err == nil {
		t.Error("sequential input count mismatch should error")
	}
}

func TestExecuteRejectsForeignSchedule(t *testing.T) {
	small := NewBuilder()
	small.Output(small.Gate(engine.AND, small.Input(), small.Input()))
	smallC, _ := small.Build()

	big := NewBuilder()
	in := big.Inputs(2)
	big.Output(big.Gate(engine.AND, big.Gate(engine.OR, in[0], in[1]), in[1]))
	bigC, _ := big.Build()

	bigSched, err := Compile(bigC, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	ins := []tfhe.LWECiphertext{testSK.EncryptBool(rng, true), testSK.EncryptBool(rng, false)}
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 1})}
	if _, err := Execute(smallC, bigSched, ins, r); err == nil {
		t.Error("schedule from a different circuit should error, not panic")
	}
}

func TestConstantNeedsInput(t *testing.T) {
	b := NewBuilder()
	b.Output(b.Lin(torus.EncodeMessage(1, 8)))
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSequential(circ, tfhe.NewEvaluator(testEK), nil); err == nil {
		t.Error("constant-only circuit should error (dimension unknown)")
	}
}

func TestEmptyCircuit(t *testing.T) {
	b := NewBuilder()
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := Execute(circ, sch, nil, &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 1})})
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty circuit: outs=%d err=%v", len(outs), err)
	}
}

func TestRunnerWithoutEngines(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	b.Output(b.Gate(engine.AND, x, x))
	circ, _ := b.Build()
	var r Runner
	rng := rand.New(rand.NewSource(3))
	if _, err := r.Run(circ, Config{}, []tfhe.LWECiphertext{testSK.EncryptBool(rng, true)}); err == nil {
		t.Error("runner without engines should error")
	}
}
