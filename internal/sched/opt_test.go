package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/torus"
)

// encBool / encMsg build test ciphertexts under the package keys.
func encBool(rng *rand.Rand, v bool) tfhe.LWECiphertext {
	return testSK.EncryptBool(rng, v)
}

func encMsg(rng *rand.Rand, m, space int) tfhe.LWECiphertext {
	return testSK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, space), tfhe.ParamsTest.LWEStdDev)
}

// mustOptimize runs Optimize, failing the test on error.
func mustOptimize(t *testing.T, c *Circuit, opt OptConfig) (*Circuit, []PassStat) {
	t.Helper()
	oc, stats, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if oc.NumInputs() != c.NumInputs() {
		t.Fatalf("optimizer changed input count: %d -> %d", c.NumInputs(), oc.NumInputs())
	}
	if oc.NumOutputs() != c.NumOutputs() {
		t.Fatalf("optimizer changed output count: %d -> %d", c.NumOutputs(), oc.NumOutputs())
	}
	return oc, stats
}

// seqBits runs the circuit sequentially and returns raw outputs.
func seqBits(t *testing.T, c *Circuit, ins []tfhe.LWECiphertext) []tfhe.LWECiphertext {
	t.Helper()
	outs, err := RunSequential(c, tfhe.NewEvaluator(testEK), ins)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestPassPruneDropsDeadKeepsInputs(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	live := b.Gate(engine.AND, x, y)
	b.Gate(engine.XOR, x, y)       // dead gate
	b.Lin(0, Term{W: x, C: 1})     // dead lin
	b.LUT(x, 4, []int{0, 1, 2, 3}) // dead LUT
	b.Input()                      // unused input: must survive
	b.Output(live)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptConfig{Prune: true})
	if oc.NumNodes() != 4 { // 3 inputs + AND
		t.Fatalf("pruned circuit has %d nodes, want 4", oc.NumNodes())
	}
	if len(stats) != 1 || stats[0].Name != "prune" || stats[0].NodesRemoved != 3 || stats[0].PBSRemoved != 2 {
		t.Fatalf("unexpected prune stats: %+v", stats)
	}
	rng := rand.New(rand.NewSource(1))
	ins := []tfhe.LWECiphertext{encBool(rng, true), encBool(rng, true), encBool(rng, false)}
	want := seqBits(t, c, ins)
	got := seqBits(t, oc, ins)
	if len(got) != 1 || !sameCT(got[0], want[0]) {
		t.Fatal("prune changed the surviving output bits")
	}
}

func TestPassPruneShrinksMultiLUTGroups(t *testing.T) {
	const space = 4
	build := func(keep []int) (*Circuit, *Circuit) {
		// full: a 3-table group with only `keep` outputs used.
		b := NewBuilder()
		in := b.Input()
		ws := b.MultiLUT(in, space, mvTables(space, 3))
		for _, j := range keep {
			b.Output(ws[j])
		}
		full, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		oc, _ := mustOptimize(t, full, OptConfig{Prune: true})
		return full, oc
	}

	full, oc := build([]int{0, 2})
	if oc.NumNodes() != 3 { // input + 2 shrunk siblings
		t.Fatalf("shrunk circuit has %d nodes, want 3", oc.NumNodes())
	}
	rng := rand.New(rand.NewSource(2))
	for m := 0; m < space; m++ {
		ins := []tfhe.LWECiphertext{encMsg(rng, m, space)}
		want := seqBits(t, full, ins)
		got := seqBits(t, oc, ins)
		for i := range want {
			w := tfhe.DecodePBSMessage(testSK.LWE.Phase(want[i]), space)
			g := tfhe.DecodePBSMessage(testSK.LWE.Phase(got[i]), space)
			if w != g {
				t.Fatalf("m=%d output %d: decode %d != %d", m, i, g, w)
			}
		}
	}

	// One live sibling degenerates to a plain LUT.
	_, oc = build([]int{1})
	if oc.NumNodes() != 2 {
		t.Fatalf("single-survivor circuit has %d nodes, want 2", oc.NumNodes())
	}
	if oc.nodes[1].kind != kindLUT {
		t.Fatalf("single survivor kept kind %d, want plain LUT", oc.nodes[1].kind)
	}

	// A fully dead group vanishes.
	b := NewBuilder()
	in := b.Input()
	b.MultiLUT(in, space, mvTables(space, 3))
	b.Output(in)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, _ = mustOptimize(t, c, OptConfig{Prune: true})
	if oc.NumNodes() != 1 {
		t.Fatalf("dead group left %d nodes, want 1", oc.NumNodes())
	}
}

func TestPassLinFoldFlattensChainsBitwise(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	l1 := b.Lin(torus.FromFloat(0.125), Term{W: x, C: 2}, Term{W: y, C: -1})
	l2 := b.Lin(torus.FromFloat(0.25), Term{W: l1, C: 3}, Term{W: x, C: 1})
	l3 := b.Lin(0, Term{W: l2, C: -1}, Term{W: l1, C: 1}, Term{W: y, C: 0})
	b.Output(l3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptConfig{LinFold: true})
	// l3 must now be flat: terms reference inputs only.
	for _, tm := range oc.nodes[l3].terms {
		if oc.nodes[tm.W].kind != kindInput {
			t.Fatalf("folded node still references non-input wire %d", tm.W)
		}
	}
	if len(stats) != 1 || stats[0].Name != "linfold" || stats[0].Rewrites == 0 {
		t.Fatalf("unexpected linfold stats: %+v", stats)
	}
	rng := rand.New(rand.NewSource(3))
	ins := []tfhe.LWECiphertext{encBool(rng, true), encBool(rng, false)}
	want := seqBits(t, c, ins)
	got := seqBits(t, oc, ins)
	if !sameCT(got[0], want[0]) {
		t.Fatal("linear folding is not bitwise-preserving")
	}
}

func TestPassCSEMergesDuplicatesBitwise(t *testing.T) {
	table := []int{1, 0, 3, 2}
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	g1 := b.Gate(engine.AND, x, y)
	g2 := b.Gate(engine.AND, y, x) // same gate, swapped operands
	l1 := b.Lin(5, Term{W: x, C: 1}, Term{W: y, C: 2})
	l2 := b.Lin(5, Term{W: y, C: 2}, Term{W: x, C: 1}) // same sum, reordered
	u1 := b.LUT(g1, 4, table)
	u2 := b.LUT(g2, 4, table) // identical once g2 merges into g1
	m1 := b.MultiLUT(g1, 4, mvTables(4, 2))
	m2 := b.MultiLUT(g1, 4, mvTables(4, 2))
	b.Output(g1, g2, l1, l2, u1, u2)
	b.Output(m1...)
	b.Output(m2...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptConfig{CSE: true})
	// 2 inputs + gate + lin + LUT + 2-sibling group = 7 nodes.
	if oc.NumNodes() != 7 {
		t.Fatalf("CSE left %d nodes, want 7", oc.NumNodes())
	}
	if len(stats) != 1 || stats[0].Name != "cse" || stats[0].NodesRemoved != 5 {
		t.Fatalf("unexpected cse stats: %+v", stats)
	}
	rng := rand.New(rand.NewSource(4))
	ins := []tfhe.LWECiphertext{encBool(rng, true), encBool(rng, true)}
	want := seqBits(t, c, ins)
	got := seqBits(t, oc, ins)
	for i := range want {
		if !sameCT(got[i], want[i]) {
			t.Fatalf("CSE output %d is not bitwise identical", i)
		}
	}
}

// decodeBools decrypts boolean outputs.
func decodeBools(outs []tfhe.LWECiphertext) []bool {
	bs := make([]bool, len(outs))
	for i, o := range outs {
		bs[i] = testSK.DecryptBool(o)
	}
	return bs
}

func TestPassFuseGateChains(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(b *Builder, x, y Wire) Wire
		want  func(x, y bool) bool
		pbs   int // expected PBS after fuse+prune
	}{
		{
			"and-nand chain", // NAND(AND(x,y), x) ≡ NAND(x, y)
			func(b *Builder, x, y Wire) Wire { return b.Gate(engine.NAND, b.Gate(engine.AND, x, y), x) },
			func(x, y bool) bool { return !(x && y) },
			1,
		},
		{
			"xor of not", // XOR(NOT x, y) stays one gate (free negation folds)
			func(b *Builder, x, y Wire) Wire { return b.Gate(engine.XOR, b.Not(x), b.Gate(engine.OR, x, y)) },
			func(x, y bool) bool { return !x != (x || y) },
			1,
		},
		{
			"same-wire degenerate", // XOR(x, x) ≡ false, no PBS at all
			func(b *Builder, x, y Wire) Wire { return b.Gate(engine.XOR, x, x) },
			func(x, y bool) bool { return false },
			0,
		},
		{
			"copy degenerate", // OR(x, x) ≡ x
			func(b *Builder, x, y Wire) Wire { return b.Gate(engine.OR, x, x) },
			func(x, y bool) bool { return x },
			0,
		},
		{
			"not-chain collapse", // AND(NOT NOT x, NOT y)
			func(b *Builder, x, y Wire) Wire { return b.Gate(engine.AND, b.Not(b.Not(x)), b.Not(y)) },
			func(x, y bool) bool { return x && !y },
			1,
		},
		{
			"two-gate same bases", // OR(AND(x,y), XOR(x,y)) ≡ OR(x,y)
			func(b *Builder, x, y Wire) Wire {
				return b.Gate(engine.OR, b.Gate(engine.AND, x, y), b.Gate(engine.XOR, x, y))
			},
			func(x, y bool) bool { return x || y },
			1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			x, y := b.Input(), b.Input()
			b.Output(tc.build(b, x, y))
			c, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			oc, _ := mustOptimize(t, c, OptConfig{Fuse: true, Prune: true})
			if got := pbsCost(oc); got != tc.pbs {
				t.Fatalf("fused circuit costs %d PBS, want %d", got, tc.pbs)
			}
			rng := rand.New(rand.NewSource(5))
			for bit := 0; bit < 4; bit++ {
				xv, yv := bit&1 == 1, bit&2 == 2
				ins := []tfhe.LWECiphertext{encBool(rng, xv), encBool(rng, yv)}
				got := decodeBools(seqBits(t, oc, ins))
				if got[0] != tc.want(xv, yv) {
					t.Fatalf("x=%v y=%v: fused output %v, want %v", xv, yv, got[0], tc.want(xv, yv))
				}
			}
		})
	}
}

func TestPassFuseRespectsSharedProducers(t *testing.T) {
	// The inner AND has two consumers: expanding it into either would
	// duplicate its rotation, so nothing may fuse.
	b := NewBuilder()
	x, y, z := b.Input(), b.Input(), b.Input()
	g := b.Gate(engine.AND, x, y)
	b.Output(b.Gate(engine.OR, g, z))
	b.Output(b.Gate(engine.XOR, g, z))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptConfig{Fuse: true, Prune: true})
	if got := pbsCost(oc); got != 3 {
		t.Fatalf("shared producer circuit costs %d PBS, want 3", got)
	}
	for _, p := range stats {
		if p.Name == "fuse" && p.Rewrites != 0 {
			t.Fatalf("fuse rewrote a shared producer: %+v", stats)
		}
	}
}

func TestPassFuseLUTChains(t *testing.T) {
	const space = 8
	t1 := []int{1, 2, 3, 4, 5, 6, 7, 0}
	t2 := []int{0, 0, 1, 1, 2, 2, 3, 3}
	t3 := []int{7, 6, 5, 4, 3, 2, 1, 0}
	b := NewBuilder()
	in := b.Input()
	b.Output(b.LUT(b.LUT(b.LUT(in, space, t1), space, t2), space, t3))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := mustOptimize(t, c, OptConfig{Fuse: true, Prune: true})
	if got := pbsCost(oc); got != 1 {
		t.Fatalf("LUT chain fused to %d PBS, want 1", got)
	}
	rng := rand.New(rand.NewSource(6))
	for m := 0; m < space; m++ {
		ins := []tfhe.LWECiphertext{encMsg(rng, m, space)}
		got := tfhe.DecodePBSMessage(testSK.LWE.Phase(seqBits(t, oc, ins)[0]), space)
		if want := t3[t2[t1[m]]]; got != want {
			t.Fatalf("m=%d: fused chain decodes to %d, want %d", m, got, want)
		}
	}

	// A shared intermediate LUT must not fuse away.
	b = NewBuilder()
	in = b.Input()
	mid := b.LUT(in, space, t1)
	b.Output(b.LUT(mid, space, t2), mid)
	c, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, _ = mustOptimize(t, c, OptConfig{Fuse: true, Prune: true})
	if got := pbsCost(oc); got != 2 {
		t.Fatalf("shared LUT chain costs %d PBS, want 2", got)
	}
}

func TestPassMultiValuePacksFanOut(t *testing.T) {
	const space = 4
	b := NewBuilder()
	in := b.Input()
	tabs := mvTables(space, 5)
	for _, tab := range tabs {
		b.Output(b.LUT(in, space, tab))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptConfig{MultiValue: 2})
	if got := pbsCost(oc); got != 3 { // chunks of 2+2, leftover 1
		t.Fatalf("packed circuit costs %d PBS, want 3", got)
	}
	if len(stats) != 1 || stats[0].Name != "mvpack" || stats[0].Rewrites != 4 || stats[0].PBSRemoved != 2 {
		t.Fatalf("unexpected mvpack stats: %+v", stats)
	}
	rng := rand.New(rand.NewSource(7))
	for m := 0; m < space; m++ {
		ins := []tfhe.LWECiphertext{encMsg(rng, m, space)}
		outs := seqBits(t, oc, ins)
		for i, tab := range tabs {
			if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[i]), space); got != tab[m] {
				t.Fatalf("m=%d table %d: decode %d, want %d", m, i, got, tab[m])
			}
		}
	}

	// The budget caps space·k: budget 8 at space 4 allows only pairs;
	// budget 4 disables packing entirely.
	oc, _ = mustOptimize(t, c, OptConfig{MultiValue: 4, MultiValueBudget: 8})
	if got := pbsCost(oc); got != 3 {
		t.Fatalf("budget-8 packing costs %d PBS, want 3", got)
	}
	oc, _ = mustOptimize(t, c, OptConfig{MultiValue: 4, MultiValueBudget: 4})
	if got := pbsCost(oc); got != 5 {
		t.Fatalf("budget-4 packing costs %d PBS, want 5", got)
	}
}

func TestPassMultiValueLeavesExplicitGroups(t *testing.T) {
	const space = 4
	b := NewBuilder()
	in := b.Input()
	ws := b.MultiLUT(in, space, mvTables(space, 2))
	b.Output(ws...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptConfig{MultiValue: 4})
	if len(stats) != 0 {
		t.Fatalf("explicit group was rewritten: %+v", stats)
	}
	if oc != c {
		t.Fatal("circuit with only explicit groups should pass through unchanged")
	}
}

// TestOptimizeAllPipelineDecode runs the full pipeline over a mixed
// circuit and pins the decoded outputs plus the PBS reduction.
func TestOptimizeAllPipelineDecode(t *testing.T) {
	const space = 8
	sq := make([]int, space)
	neg := make([]int, space)
	for m := range sq {
		sq[m] = (m * m) % space
		neg[m] = (space - 1) - m
	}
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	v := b.Input()
	s1 := b.Gate(engine.XOR, x, y)
	s2 := b.Gate(engine.XOR, y, x) // CSE victim
	b.Output(b.Gate(engine.AND, s1, s2))
	u1 := b.LUT(v, space, sq)
	b.Output(b.LUT(u1, space, neg)) // fuses, then packs with u2
	u2 := b.LUT(v, space, neg)
	b.Output(u2)
	b.LUT(v, space, sq) // dead
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oc, stats := mustOptimize(t, c, OptAll())
	naive, opt := pbsCost(c), pbsCost(oc)
	if opt >= naive {
		t.Fatalf("pipeline did not reduce PBS: %d -> %d", naive, opt)
	}
	sum := 0
	for _, p := range stats {
		sum += p.PBSRemoved
	}
	if sum != naive-opt {
		t.Fatalf("per-pass PBSRemoved sums to %d, want %d (stats %+v)", sum, naive-opt, stats)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 4; trial++ {
		xv, yv := rng.Intn(2) == 0, rng.Intn(2) == 0
		mv := rng.Intn(space)
		ins := []tfhe.LWECiphertext{encBool(rng, xv), encBool(rng, yv), encMsg(rng, mv, space)}
		outs := seqBits(t, oc, ins)
		if got := testSK.DecryptBool(outs[0]); got != (xv != yv) {
			t.Fatalf("bool output: got %v, want %v", got, xv != yv)
		}
		if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[1]), space); got != neg[sq[mv]] {
			t.Fatalf("fused output: got %d, want %d", got, neg[sq[mv]])
		}
		if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[2]), space); got != neg[mv] {
			t.Fatalf("neg output: got %d, want %d", got, neg[mv])
		}
	}
}

// TestCompileWithOptRunsEndToEnd pins Compile/Execute integration: the
// schedule carries the rewritten circuit while Execute validates against
// the source circuit, and the plan summary mentions the optimizer.
func TestCompileWithOptRunsEndToEnd(t *testing.T) {
	const space = 8
	tab := []int{3, 1, 4, 1, 5, 0, 2, 6}
	b := NewBuilder()
	v := b.Input()
	u1 := b.LUT(v, space, tab)
	u2 := b.LUT(v, space, tab) // CSE victim
	b.Output(u1, u2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Compile(c, Config{Opt: OptAll()})
	if err != nil {
		t.Fatal(err)
	}
	if sch.Stats().TotalPBS != 1 {
		t.Fatalf("optimized schedule costs %d PBS, want 1", sch.Stats().TotalPBS)
	}
	if len(sch.Stats().OptPasses) == 0 {
		t.Fatal("schedule stats carry no pass records")
	}
	if s := sch.String(); !strings.Contains(s, "optimizer") {
		t.Fatalf("plan summary does not mention the optimizer: %q", s)
	}
	if d := sch.Describe(); !strings.Contains(d, "pass cse") {
		t.Fatalf("plan description misses the pass table:\n%s", d)
	}
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
	rng := rand.New(rand.NewSource(9))
	for m := 0; m < space; m++ {
		ins := []tfhe.LWECiphertext{encMsg(rng, m, space)}
		outs, err := r.RunSchedule(c, sch, ins)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if got := tfhe.DecodePBSMessage(testSK.LWE.Phase(outs[i]), space); got != tab[m] {
				t.Fatalf("m=%d output %d: decode %d, want %d", m, i, got, tab[m])
			}
		}
		if !sameCT(outs[0], outs[1]) {
			t.Fatal("merged outputs should alias the same ciphertext")
		}
	}
}
