package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// fixture is shared by every test in the package: one key set, eight live
// backends (keygen plus service registration is the expensive part).
var fixture *Fixture

func TestMain(m *testing.M) {
	f, err := NewFixture(2026, tfhe.ParamsTest)
	if err != nil {
		panic(err)
	}
	fixture = f
	defer f.Close()
	m.Run()
}

// encTestBools returns encrypted booleans and their plaintexts.
func encTestBools(seed int64, n int) ([]tfhe.LWECiphertext, []bool) {
	rng := rand.New(rand.NewSource(seed))
	cts := make([]tfhe.LWECiphertext, n)
	pts := make([]bool, n)
	for i := range cts {
		pts[i] = rng.Intn(2) == 1
		cts[i] = fixture.SK.EncryptBool(rng, pts[i])
	}
	return cts, pts
}

// encTestInts returns encrypted PBS-encoded integers and their plaintexts.
func encTestInts(seed int64, n, space int) ([]tfhe.LWECiphertext, []int) {
	rng := rand.New(rand.NewSource(seed))
	cts := make([]tfhe.LWECiphertext, n)
	pts := make([]int, n)
	for i := range cts {
		pts[i] = rng.Intn(space)
		cts[i] = fixture.SK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(pts[i], space), fixture.SK.Params.LWEStdDev)
	}
	return cts, pts
}

// requireBools asserts each ciphertext decrypts to the expected bit —
// the conformance relation for backends that do not promise bitwise
// outputs (Backend.Bitwise() == false).
func requireBools(t *testing.T, backend string, got []tfhe.LWECiphertext, want []bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", backend, len(got), len(want))
	}
	for i := range want {
		if v := fixture.SK.DecryptBool(got[i]); v != want[i] {
			t.Fatalf("%s: output %d decrypts to %v, want %v", backend, i, v, want[i])
		}
	}
}

// requireInts asserts each ciphertext decodes to the expected message.
func requireInts(t *testing.T, backend string, got []tfhe.LWECiphertext, space int, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", backend, len(got), len(want))
	}
	for i := range want {
		if v := tfhe.DecodePBSMessage(fixture.SK.LWE.Phase(got[i]), space); v != want[i] {
			t.Fatalf("%s: output %d decodes to %d, want %d", backend, i, v, want[i])
		}
	}
}

// requireSame asserts bitwise equality against the sequential reference.
func requireSame(t *testing.T, backend string, got, want []tfhe.LWECiphertext) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", backend, len(got), len(want))
	}
	for i := range want {
		if !EqualLWE(got[i], want[i]) {
			t.Fatalf("%s: output %d is not bitwise identical to the sequential reference", backend, i)
		}
	}
}

// TestGatesConform runs every gate op through every backend and asserts
// bitwise equality with the sequential reference (whose outputs are
// themselves checked against the plaintext truth table first).
func TestGatesConform(t *testing.T) {
	a, pa := encTestBools(101, 4)
	b, pb := encTestBools(102, 4)
	for _, op := range []engine.GateOp{engine.NAND, engine.AND, engine.OR, engine.NOR, engine.XOR, engine.XNOR, engine.NOT} {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			operandB := b
			if op == engine.NOT {
				operandB = nil
			}
			ref := fixture.Backends()[0]
			want, err := ref.Gate(op, a, operandB)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				wantBit := op.Eval(pa[i], pb[i])
				if got := fixture.SK.DecryptBool(want[i]); got != wantBit {
					t.Fatalf("sequential %s item %d decrypts to %v, want %v", op, i, got, wantBit)
				}
			}
			for _, be := range fixture.Backends()[1:] {
				got, err := be.Gate(op, a, operandB)
				if err != nil {
					t.Fatalf("%s: %v", be.Name(), err)
				}
				if be.Bitwise() {
					requireSame(t, be.Name(), got, want)
					continue
				}
				bits := make([]bool, len(want))
				for i := range bits {
					bits[i] = op.Eval(pa[i], pb[i])
				}
				requireBools(t, be.Name(), got, bits)
			}
		})
	}
}

// TestLUTConform runs lookup tables through every backend.
func TestLUTConform(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space int
		table []int
	}{
		{"space4-square", 4, []int{0, 1, 0, 1}},
		{"space8-affine", 8, []int{3, 4, 5, 6, 7, 0, 1, 2}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cts, pts := encTestInts(103, 4, tc.space)
			ref := fixture.Backends()[0]
			groups, err := ref.LUT(cts, tc.space, [][]int{tc.table})
			if err != nil {
				t.Fatal(err)
			}
			want := oneTable(t, ref.Name(), groups)
			for i := range want {
				if got := tfhe.DecodePBSMessage(fixture.SK.LWE.Phase(want[i]), tc.space); got != tc.table[pts[i]] {
					t.Fatalf("sequential LUT item %d decodes to %d, want %d", i, got, tc.table[pts[i]])
				}
			}
			for _, be := range fixture.Backends()[1:] {
				groups, err := be.LUT(cts, tc.space, [][]int{tc.table})
				if err != nil {
					t.Fatalf("%s: %v", be.Name(), err)
				}
				got := oneTable(t, be.Name(), groups)
				if be.Bitwise() {
					requireSame(t, be.Name(), got, want)
					continue
				}
				ints := make([]int, len(want))
				for i := range ints {
					ints[i] = tc.table[pts[i]]
				}
				requireInts(t, be.Name(), got, tc.space, ints)
			}
		})
	}
}

// oneTable flattens one-table lookup groups to their outputs, one per
// input, failing unless every group holds exactly one.
func oneTable(t *testing.T, name string, groups [][]tfhe.LWECiphertext) []tfhe.LWECiphertext {
	t.Helper()
	out := make([]tfhe.LWECiphertext, len(groups))
	for i, g := range groups {
		if len(g) != 1 {
			t.Fatalf("%s: input %d has %d outputs, want 1", name, i, len(g))
		}
		out[i] = g[0]
	}
	return out
}

// TestMultiLUTConform runs multi-value lookups (including the k=1
// degeneration) through every backend.
func TestMultiLUTConform(t *testing.T) {
	for _, tc := range []struct {
		name   string
		space  int
		tables [][]int
	}{
		{"space4-k1", 4, [][]int{{1, 2, 3, 0}}},
		{"space4-k2", 4, [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}}},
		{"space4-k4", 4, [][]int{{0, 0, 1, 1}, {1, 3, 1, 3}, {2, 2, 0, 0}, {3, 1, 2, 0}}},
		{"space8-k3", 8, [][]int{
			{0, 1, 2, 3, 4, 5, 6, 7},
			{7, 6, 5, 4, 3, 2, 1, 0},
			{1, 1, 2, 2, 3, 3, 4, 4},
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cts, pts := encTestInts(104, 3, tc.space)
			ref := fixture.Backends()[0]
			want, err := ref.LUT(cts, tc.space, tc.tables)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j, table := range tc.tables {
					if got := tfhe.DecodePBSMessage(fixture.SK.LWE.Phase(want[i][j]), tc.space); got != table[pts[i]] {
						t.Fatalf("sequential multi-LUT [%d][%d] decodes to %d, want %d", i, j, got, table[pts[i]])
					}
				}
			}
			for _, be := range fixture.Backends()[1:] {
				got, err := be.LUT(cts, tc.space, tc.tables)
				if err != nil {
					t.Fatalf("%s: %v", be.Name(), err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d output groups, want %d", be.Name(), len(got), len(want))
				}
				for i := range want {
					if be.Bitwise() {
						requireSame(t, be.Name(), got[i], want[i])
						continue
					}
					ints := make([]int, len(tc.tables))
					for j, table := range tc.tables {
						ints[j] = table[pts[i]]
					}
					requireInts(t, be.Name(), got[i], tc.space, ints)
				}
			}
		})
	}
}

// conformanceCircuit builds a mixed circuit touching every node kind:
// boolean gates (three distinct ops on the first level and two on the
// second, so every scheduled backend runs mixed-op dispatches), a free
// linear NOT, an explicit multi-value group, and a downstream LUT
// consuming one of its outputs.
func conformanceCircuit(t *testing.T) (*sched.Circuit, []tfhe.LWECiphertext) {
	t.Helper()
	const space = 4
	b := sched.NewBuilder()
	x, y := b.Input(), b.Input()
	v := b.Input() // integer input for the LUT side
	s := b.Gate(engine.XOR, x, y)
	c := b.Gate(engine.AND, x, y)
	o := b.Gate(engine.OR, x, y)
	b.Output(b.Gate(engine.NAND, s, c))
	b.Output(b.Gate(engine.NOT, c, -1))
	b.Output(b.Gate(engine.NOR, o, c))
	ws := b.LUT(v, space, []int{1, 2, 3, 0}, []int{0, 0, 2, 2}, []int{3, 3, 3, 3})
	b.Output(ws...)
	b.Output(b.LUT(ws[0], space, []int{3, 2, 1, 0})...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(105))
	inputs := []tfhe.LWECiphertext{
		fixture.SK.EncryptBool(rng, true),
		fixture.SK.EncryptBool(rng, false),
		fixture.SK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(2, space), fixture.SK.Params.LWEStdDev),
	}
	return circ, inputs
}

// TestCircuitConform runs the mixed circuit through every backend.
func TestCircuitConform(t *testing.T) {
	circ, inputs := conformanceCircuit(t)
	ref := fixture.Backends()[0]
	want, err := ref.Circuit(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Plaintext reference: x=1 y=0 v=2.
	// s = XOR = 1, c = AND = 0, o = OR = 1, NAND(s,c) = 1, NOT(c) = 1,
	// NOR(o,c) = 0, the three-table lookup of 2 = {3, 2, 3}, LUT[3..0](3) = 0.
	wantBits := []bool{true, true, false}
	for i, wb := range wantBits {
		if got := fixture.SK.DecryptBool(want[i]); got != wb {
			t.Fatalf("sequential circuit output %d decrypts to %v, want %v", i, got, wb)
		}
	}
	wantInts := []int{3, 2, 3, 0}
	for i, wi := range wantInts {
		if got := tfhe.DecodePBSMessage(fixture.SK.LWE.Phase(want[len(wantBits)+i]), 4); got != wi {
			t.Fatalf("sequential circuit output %d decodes to %d, want %d", len(wantBits)+i, got, wi)
		}
	}
	for _, be := range fixture.Backends()[1:] {
		got, err := be.Circuit(circ, inputs)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if be.Bitwise() {
			requireSame(t, be.Name(), got, want)
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d outputs, want %d", be.Name(), len(got), len(want))
		}
		requireBools(t, be.Name(), got[:len(wantBits)], wantBits)
		requireInts(t, be.Name(), got[len(wantBits):], 4, wantInts)
	}
}

// encInferVecs encrypts cleartext feature vectors vector-major in the
// inference encoding and returns the per-vector reference scores.
func encInferVecs(t *testing.T, seed int64, vecs [][]int) ([]tfhe.LWECiphertext, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cts []tfhe.LWECiphertext
	scores := make([][]int, len(vecs))
	for i, v := range vecs {
		want, err := workload.InferReference(v)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = want
		for _, m := range v {
			cts = append(cts, fixture.SK.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, workload.InferSpace), fixture.SK.Params.LWEStdDev))
		}
	}
	return cts, scores
}

// TestInferConform runs a small batch of feature vectors through every
// backend's Infer: bitwise against the sequential reference where the
// backend promises it, and always decode-identical to the quantized
// cleartext reference.
func TestInferConform(t *testing.T) {
	vecs := [][]int{{0, 1, 2, 3}, {3, 3, 0, 0}, {2, 0, 1, 2}}
	cts, scores := encInferVecs(t, 106, vecs)
	ref := fixture.Backends()[0]
	want, err := ref.Infer(cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(vecs) {
		t.Fatalf("sequential: %d score groups, want %d", len(want), len(vecs))
	}
	for i := range want {
		requireInts(t, "sequential", want[i], workload.InferSpace, scores[i])
	}
	for _, be := range fixture.Backends()[1:] {
		got, err := be.Infer(cts)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d score groups, want %d", be.Name(), len(got), len(want))
		}
		for i := range want {
			if be.Bitwise() {
				requireSame(t, be.Name(), got[i], want[i])
			}
			requireInts(t, be.Name(), got[i], workload.InferSpace, scores[i])
		}
	}
}

// TestInferSweepService is the service-scenario acceptance test: the
// full input sweep — every feature vector the model admits — runs as
// one encrypted batch end to end through a single server (with the
// optimizer pass pipeline, via the encrypted-inference backend) and
// through the routed cluster, and every prediction decodes identical
// to the quantized cleartext reference.
func TestInferSweepService(t *testing.T) {
	sweep := workload.InferSweep()
	cts, scores := encInferVecs(t, 107, sweep)
	for _, name := range []string{"encrypted-inference", "routed-cluster"} {
		var be Backend
		for _, b := range fixture.Backends() {
			if b.Name() == name {
				be = b
			}
		}
		if be == nil {
			t.Fatalf("backend %q not in fixture", name)
		}
		got, err := be.Infer(cts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(sweep) {
			t.Fatalf("%s: %d score groups, want %d", name, len(got), len(sweep))
		}
		for i := range sweep {
			requireInts(t, name, got[i], workload.InferSpace, scores[i])
			dec := make([]int, workload.InferClasses)
			for k := range dec {
				dec[k] = tfhe.DecodePBSMessage(fixture.SK.LWE.Phase(got[i][k]), workload.InferSpace)
			}
			if workload.InferPredict(dec) != workload.InferPredict(scores[i]) {
				t.Fatalf("%s: vector %v predicts class %d, reference %d", name, sweep[i], workload.InferPredict(dec), workload.InferPredict(scores[i]))
			}
		}
	}
}

// TestBackendNames pins that the ten backends are present, uniquely
// named, led by the sequential reference, and that exactly the two
// optimizing backends relax the bitwise promise. The reference-kernel
// backend promises bitwise equality while running the pure-Go kernels,
// which is what holds the fast path to the reference, and the avx2-kernel
// backend while running the AVX2 ones, which holds them to the AVX-512
// path an AVX-512 host runs by default; the routed
// cluster promises the hop through the routing tier is bitwise
// invisible; encrypted-inference rides last and runs the optimizer
// pass pipeline server-side, so its contract is decode identity.
func TestBackendNames(t *testing.T) {
	want := []string{"sequential", "streaming", "scheduled", "server", "restored-server", "optimized-scheduled", "reference-kernel", "avx2-kernel", "routed-cluster", "encrypted-inference"}
	nonBitwise := map[string]bool{"optimized-scheduled": true, "encrypted-inference": true}
	bes := fixture.Backends()
	if len(bes) != len(want) {
		t.Fatalf("%d backends, want %d", len(bes), len(want))
	}
	for i, be := range bes {
		if be.Name() != want[i] {
			t.Fatalf("backend %d named %q, want %q", i, be.Name(), want[i])
		}
		if wantBitwise := !nonBitwise[be.Name()]; be.Bitwise() != wantBitwise {
			t.Fatalf("backend %q reports Bitwise()=%v, want %v", be.Name(), be.Bitwise(), wantBitwise)
		}
	}
}

// TestEqualLWE covers the conformance relation itself.
func TestEqualLWE(t *testing.T) {
	a := tfhe.NewLWECiphertext(4)
	b := tfhe.NewLWECiphertext(4)
	if !EqualLWE(a, b) {
		t.Fatal("equal ciphertexts reported unequal")
	}
	b.B = 1
	if EqualLWE(a, b) {
		t.Fatal("differing bodies reported equal")
	}
	b = tfhe.NewLWECiphertext(4)
	b.A[2] = 1
	if EqualLWE(a, b) {
		t.Fatal("differing masks reported equal")
	}
	if EqualLWE(a, tfhe.NewLWECiphertext(5)) {
		t.Fatal("differing dimensions reported equal")
	}
}

// TestFixtureClose covers the service teardown path on a throwaway
// fixture (the shared one closes in TestMain, after coverage is taken).
func TestFixtureClose(t *testing.T) {
	f, err := NewFixture(7, tfhe.ParamsTest)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Backends()[3].(serverBackend).cl.Stats(); err == nil {
		t.Fatal("service still reachable after Close")
	}
}
