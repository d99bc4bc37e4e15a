package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tfhe"
)

// mvTables builds k distinct tables over space.
func mvTables(space, k int) [][]int {
	tables := make([][]int, k)
	for i := range tables {
		tables[i] = make([]int, space)
		for m := range tables[i] {
			tables[i][m] = (m*m + i) % space
		}
	}
	return tables
}

// mvCircuit builds the fan-out shape multi-value PBS exists for: one
// input feeding an explicit k-way lookup group, whose outputs feed a
// second LUT level.
func mvCircuit(t *testing.T, space, k int) *Circuit {
	t.Helper()
	b := NewBuilder()
	in := b.Input()
	ws := b.LUT(in, space, mvTables(space, k)...)
	if len(ws) != k {
		t.Fatalf("LUT returned %d wires, want %d", len(ws), k)
	}
	b.Output(ws...)
	inc := make([]int, space)
	for m := range inc {
		inc[m] = (m + 1) % space
	}
	b.Output(b.LUT(ws[0], space, inc)...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

func TestMultiLUTBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"bad wire", func(b *Builder) { b.LUT(7, 4, mvTables(4, 2)...) }},
		{"no tables", func(b *Builder) { b.LUT(0, 4) }},
		{"short table", func(b *Builder) { b.LUT(0, 4, []int{0, 1}) }},
		{"bad entry", func(b *Builder) { b.LUT(0, 4, []int{0, 1, 2, 4}) }},
		{"tiny space", func(b *Builder) { b.LUT(0, 1, []int{0}) }},
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

// TestCompileMultiLUTGroup checks dispatch shape and rotation accounting
// of an explicit multi-value group.
func TestCompileMultiLUTGroup(t *testing.T) {
	const space, k = 4, 3
	circ := mvCircuit(t, space, k)
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sch.Stats()
	// Level 1: one rotation for the k-way group; level 2: one plain LUT.
	if st.Levels != 2 || st.TotalPBS != 2 {
		t.Fatalf("stats = %+v, want 2 levels and 2 rotations", st)
	}
	if st.MultiValueOuts != k || st.RotationsSaved != k-1 {
		t.Fatalf("stats = %+v, want %d multi-value outputs and %d saved", st, k, k-1)
	}
	d := sch.Levels()[0].Dispatches[0]
	if d.Kind != DispatchLUT || len(d.Tables) != k || len(d.Nodes) != k || d.Groups() != 1 {
		t.Fatalf("level-0 dispatch = %+v", d)
	}
	if got := sch.String(); !strings.Contains(got, "rotations saved") {
		t.Fatalf("plan summary %q should report rotations saved", got)
	}
}

// TestScheduledMultiLUTMatchesSequential: explicit multi-value groups
// execute multi-value on both the sequential reference and every engine
// routing, so outputs must be bitwise identical.
func TestScheduledMultiLUTMatchesSequential(t *testing.T) {
	const space, k = 4, 3
	circ := mvCircuit(t, space, k)
	rng := rand.New(rand.NewSource(61))
	msg := 2
	in := []tfhe.LWECiphertext{testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(msg, space), tfhe.ParamsTest.LWEStdDev)}

	ev := tfhe.NewEvaluator(testEK)
	want, err := RunSequential(circ, ev, in)
	if err != nil {
		t.Fatal(err)
	}
	tables := mvTables(space, k)
	for i := 0; i < k; i++ {
		if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(want[i]), space); got != tables[i][msg] {
			t.Fatalf("sequential output %d decodes to %d, want %d", i, got, tables[i][msg])
		}
	}

	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	got, err := r.Run(circ, Config{}, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameCT(got[i], want[i]) {
			t.Fatalf("scheduled output %d differs from sequential", i)
		}
	}
}

// TestMultiValueFanOutFusing: with the optimizer on for the test set the
// compiler packs independent same-input LUT nodes into shared rotations,
// as many as the noise rule admits; outputs must
// decode identically to the unfused execution (bitwise equality is not
// expected — the packed rotation differs).
func TestMultiValueFanOutFusing(t *testing.T) {
	const space = 4
	b := NewBuilder()
	in := b.Input()
	other := b.Input()
	tabs := mvTables(space, 5)
	var ws []Wire
	for i := 0; i < 5; i++ {
		ws = append(ws, b.LUT(in, space, tabs[i])[0])
	}
	lone := b.LUT(other, space, tabs[0])[0] // different input: must not fuse in
	b.Output(ws...)
	b.Output(lone)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	opt := optTest()
	sch, err := Compile(circ, Config{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	st := sch.Stats()
	// CSE merges the fifth LUT into the first (space 4 repeats table 0),
	// and the test set admits four space-4 tables on a fresh input, so
	// the four left pack as one group (1 rotation, 4 outputs, 3 saved) +
	// lone = 2 rotations.
	if st.TotalPBS != 2 || st.MultiValueOuts != 4 || st.RotationsSaved != 3 {
		t.Fatalf("stats = %+v, want 2 rotations, 4 multi-value outputs, 3 saved", st)
	}

	rng := rand.New(rand.NewSource(62))
	msgs := []int{3, 1}
	ins := []tfhe.LWECiphertext{
		testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(msgs[0], space), tfhe.ParamsTest.LWEStdDev),
		testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(msgs[1], space), tfhe.ParamsTest.LWEStdDev),
	}
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	got, err := Execute(circ, sch, ins, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dec := tfhe.DecodePBSMessage(testSK.LWE.Phase(got[i]), space); dec != tabs[i][msgs[0]] {
			t.Fatalf("fused output %d decodes to %d, want %d", i, dec, tabs[i][msgs[0]])
		}
	}
	if dec := tfhe.DecodePBSMessage(testSK.LWE.Phase(got[5]), space); dec != tabs[0][msgs[1]] {
		t.Fatalf("unfused output decodes to %d, want %d", dec, tabs[0][msgs[1]])
	}

	// Determinism: recompiling and re-running the fused schedule must
	// reproduce the same bits.
	sch2, err := Compile(circ, Config{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Execute(circ, sch2, ins, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !sameCT(got[i], got2[i]) {
			t.Fatalf("fused schedule is not deterministic at output %d", i)
		}
	}
}

// TestMultiLUTSpecsRoundTrip: serialized multi-value circuits rebuild
// identically and malformed sibling streams are rejected.
func TestMultiLUTSpecsRoundTrip(t *testing.T) {
	const space, k = 4, 3
	circ := mvCircuit(t, space, k)
	specs := circ.Specs()
	outs := circ.OutputWires()

	rebuilt, err := FromSpecs(specs, outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt.nodes) != len(circ.nodes) || len(rebuilt.outputs) != len(circ.outputs) {
		t.Fatalf("round-trip changed shape: %d/%d nodes, %d/%d outputs",
			len(rebuilt.nodes), len(circ.nodes), len(rebuilt.outputs), len(circ.outputs))
	}
	rng := rand.New(rand.NewSource(63))
	in := []tfhe.LWECiphertext{testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(1, space), tfhe.ParamsTest.LWEStdDev)}
	evA, evB := tfhe.NewEvaluator(testEK), tfhe.NewEvaluator(testEK)
	want, err := RunSequential(circ, evA, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSequential(rebuilt, evB, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameCT(got[i], want[i]) {
			t.Fatalf("round-tripped circuit differs at output %d", i)
		}
	}

	// Malformed sibling streams must be rejected.
	truncated := append([]NodeSpec(nil), specs[:2]...) // head + 1 of 3 siblings
	if _, err := FromSpecs(truncated, nil); err == nil {
		t.Fatal("truncated multi-value group accepted")
	}
	orphan := []NodeSpec{{Kind: SpecInput}, {Kind: SpecLUT, In: 0, Space: space, Tables: mvTables(space, 2), Index: 1}}
	if _, err := FromSpecs(orphan, nil); err == nil {
		t.Fatal("orphan multi-value sibling accepted")
	}
	mixed := append([]NodeSpec(nil), specs...)
	mixed[2] = NodeSpec{Kind: SpecInput} // replace sibling 1 with an input
	if _, err := FromSpecs(mixed, nil); err == nil {
		t.Fatal("interrupted multi-value group accepted")
	}
	wrongTables := append([]NodeSpec(nil), specs...)
	wt := wrongTables[2]
	wt.Tables = mvTables(space, k-1)
	wrongTables[2] = wt
	if _, err := FromSpecs(wrongTables, nil); err == nil {
		t.Fatal("sibling with mismatched tables accepted")
	}
}

// TestMultiLUTFunc materializes tables from functions and must match the
// table form node for node.
func TestMultiLUTFunc(t *testing.T) {
	const space = 4
	build := func(f func(b *Builder, in Wire) []Wire) *Circuit {
		b := NewBuilder()
		in := b.Input()
		b.Output(f(b, in)...)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	viaFunc := build(func(b *Builder, in Wire) []Wire {
		return b.LUTFunc(in, space,
			func(m int) int { return (m + 1) % space },
			func(m int) int { return (3 * m) % space })
	})
	viaTables := build(func(b *Builder, in Wire) []Wire {
		return b.LUT(in, space, []int{1, 2, 3, 0}, []int{0, 3, 2, 1})
	})
	sf, st := viaFunc.Specs(), viaTables.Specs()
	if len(sf) != len(st) {
		t.Fatalf("node counts differ: %d vs %d", len(sf), len(st))
	}
	for i := range sf {
		if !tablesEqual(sf[i].Tables, st[i].Tables) || sf[i].Index != st[i].Index {
			t.Fatalf("node %d differs between LUTFunc and LUT", i)
		}
	}

	bad := NewBuilder()
	bad.Input()
	if ws := bad.LUTFunc(0, 1, func(m int) int { return m }); len(ws) != 1 || ws[0] != -1 {
		t.Fatalf("failed LUTFunc returned %v, want one invalid wire", ws)
	}
	if ws := bad.LUT(7, 4, mvTables(4, 2)...); len(ws) != 2 || ws[0] != -1 || ws[1] != -1 {
		t.Fatalf("failed LUT returned %v, want k = 2 invalid wires", ws)
	}
	if _, err := bad.Build(); err == nil {
		t.Fatal("LUTFunc accepted space < 2")
	}
}

// TestRunSequentialRejectsOverpackedGroup: the sequential reference must
// surface the packing bound as an error, like the engine-backed path,
// not a panic.
func TestRunSequentialRejectsOverpackedGroup(t *testing.T) {
	const space = 4
	over := make([][]int, tfhe.ParamsTest.N) // space·k > N
	for i := range over {
		over[i] = []int{0, 1, 2, 3}
	}
	b := NewBuilder()
	in := b.Input()
	b.Output(b.LUT(in, space, over...)...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	ins := []tfhe.LWECiphertext{testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(1, space), tfhe.ParamsTest.LWEStdDev)}
	if _, err := RunSequential(circ, tfhe.NewEvaluator(testEK), ins); err == nil {
		t.Fatal("overpacked multi-value group did not error")
	}
}

// TestLUTSpaceBeyondNRefused: a single LUT whose space the test vector
// cannot hold (space > N, the one-table case of the packing bound) is an
// error on both the engine-backed and the sequential path, as it is at the
// gate service, never a wrong answer.
func TestLUTSpaceBeyondNRefused(t *testing.T) {
	space := 2 * tfhe.ParamsTest.N
	table := make([]int, space)
	for m := range table {
		table[m] = (m + 1) % space
	}
	b := NewBuilder()
	b.Output(b.LUT(b.Input(), space, table)...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(65))
	ins := []tfhe.LWECiphertext{testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(3, space), tfhe.ParamsTest.LWEStdDev)}
	if _, err := RunSequential(circ, tfhe.NewEvaluator(testEK), ins); err == nil {
		t.Error("RunSequential accepted a LUT with space > N")
	}
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 1})}
	if _, err := r.Run(circ, Config{}, ins); err == nil {
		t.Error("Runner.Run accepted a LUT with space > N")
	}
}

// TestOneTableGroupIsALUT: an explicit one-table group is the plain
// lookup in every pass and in the plan. Fed into a same-space LUT, fuse
// composes the two into one PBS under OptAll, which decodes to the
// composed table; beside a plain LUT on the same input and table, it
// plans, unoptimized, as one lut: dispatch whose outputs are bitwise the
// sequential reference's.
func TestOneTableGroupIsALUT(t *testing.T) {
	const space = 4
	t1, t2 := []int{1, 2, 3, 0}, []int{3, 3, 0, 1}
	b := NewBuilder()
	in := b.Input()
	b.Output(b.LUT(b.LUT(in, space, t1)[0], space, t2)...)
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(chain, Config{Opt: optTest()})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TotalPBS != 1 {
		t.Fatalf("optimized chain plans %v, want 1 PBS (fused)", s)
	}
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	rng := rand.New(rand.NewSource(66))
	for m := range space {
		got, err := Execute(chain, s, []tfhe.LWECiphertext{encMsg(rng, m, space)}, r)
		if err != nil {
			t.Fatal(err)
		}
		if dec := tfhe.DecodePBSMessage(testSK.LWE.Phase(got[0]), space); dec != t2[t1[m]] {
			t.Fatalf("m=%d: fused chain decodes to %d, want %d", m, dec, t2[t1[m]])
		}
	}

	b = NewBuilder()
	in = b.Input()
	b.Output(b.LUT(in, space, t1)...)
	b.Output(b.LUT(in, space, t1)...)
	twin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err = Compile(twin, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Describe(), "level 1 (2 PBS): lut:s4 x2\n"; !strings.Contains(got, want) {
		t.Fatalf("plan:\n%swant the line %q", got, want)
	}
	if st := s.Stats(); st.Dispatches != 1 || st.MultiValueOuts != 0 || st.RotationsSaved != 0 {
		t.Fatalf("stats = %+v, want 1 dispatch and no multi-value outputs", st)
	}
	ins := []tfhe.LWECiphertext{encMsg(rng, 2, space)}
	want := seqBits(t, twin, ins)
	got, err := Execute(twin, s, ins, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameCT(got[i], want[i]) || !sameCT(got[i], want[0]) {
			t.Fatalf("output %d differs from the sequential reference or its twin", i)
		}
	}
}
