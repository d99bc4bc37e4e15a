package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tfhe"
)

// testSetup generates a deterministic key set plus a batch of encrypted
// booleans, the same for every call with the same seed.
func testSetup(t testing.TB, seed int64, batch int) (tfhe.SecretKeys, tfhe.EvaluationKeys, []tfhe.LWECiphertext, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	pts := make([]bool, batch)
	cts := make([]tfhe.LWECiphertext, batch)
	for i := range cts {
		pts[i] = rng.Intn(2) == 1
		cts[i] = sk.EncryptBool(rng, pts[i])
	}
	return sk, ek, cts, pts
}

func ctEqual(a, b tfhe.LWECiphertext) bool {
	if a.B != b.B || len(a.A) != len(b.A) {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

// TestMatchesSerialEvaluator is the engine's contract, stated once: every
// operation of the engine's vocabulary, run at any worker count, returns
// ciphertexts bitwise equal to the sequential tfhe.Evaluator's — so also
// the same ciphertexts at every count, which catches aliasing or scratch
// shared across workers. The gate rows also decrypt every output.
// Runs under -race (make race): operands and the test vector are read by
// every worker of a batch.
func TestMatchesSerialEvaluator(t *testing.T) {
	const space, batch = 8, 10
	rng := rand.New(rand.NewSource(7))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	serial := tfhe.NewEvaluator(ek)

	bits, ints := make([]tfhe.LWECiphertext, batch), make([]tfhe.LWECiphertext, batch)
	pts := make([]bool, batch)
	for i := range bits {
		pts[i] = rng.Intn(2) == 1
		bits[i] = sk.EncryptBool(rng, pts[i])
		ints[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(rng.Intn(space), space), tfhe.ParamsTest.LWEStdDev)
	}
	table := rng.Perm(space)
	lut := func(m int) int { return table[m] }

	// One gate of every kind, NOT among them. Where the op is NOT, b[i] is
	// a zero-value placeholder the engines must never look at.
	gates := []GateOp{NAND, AND, OR, NOT, NOR, XOR, XNOR, NOT, AND, XOR}
	b := make([]tfhe.LWECiphertext, batch)
	for i, g := range gates {
		if g != NOT {
			b[i] = bits[(i+3)%batch]
		}
	}

	// one wraps a single-output result in the per-item shape.
	one := func(cts []tfhe.LWECiphertext, err error) ([][]tfhe.LWECiphertext, error) {
		out := make([][]tfhe.LWECiphertext, len(cts))
		for i, ct := range cts {
			out[i] = []tfhe.LWECiphertext{ct}
		}
		return out, err
	}
	// multi runs a k-table lookup and splits its input-major outputs per
	// item.
	multi := func(k int) func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) {
		return func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) {
			flat, err := o.LUT(ints, space, multiTables(space, k))
			out := make([][]tfhe.LWECiphertext, len(flat)/k)
			for i := range out {
				out[i] = flat[i*k : (i+1)*k]
			}
			return out, err
		}
	}
	type gateCase struct {
		name  string
		run   func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error)
		seq   func(i int) []tfhe.LWECiphertext // the sequential evaluator on item i
		n     int                              // items the case runs
		plain func(i int) bool                 // a gate row's plaintext result, or nil
	}
	cases := []gateCase{
		{"LUT",
			func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) {
				return one(o.LUT(ints, space, []func(int) int{lut}))
			},
			func(i int) []tfhe.LWECiphertext { return []tfhe.LWECiphertext{serial.EvalLUTKS(ints[i], space, lut)} }, batch, nil},
		{"MultiLUT-k1", multi(1),
			func(i int) []tfhe.LWECiphertext { return serial.EvalMultiLUTKS(ints[i], space, multiTables(space, 1)) }, batch, nil},
		{"MultiLUT-k3", multi(3),
			func(i int) []tfhe.LWECiphertext { return serial.EvalMultiLUTKS(ints[i], space, multiTables(space, 3)) }, batch, nil},
		{"Gates-mixed",
			func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) { return one(o.Gates(gates, bits, b)) },
			func(i int) []tfhe.LWECiphertext {
				return []tfhe.LWECiphertext{seqGate(serial, gates[i], bits[i], b[i])}
			}, batch, func(i int) bool { return gates[i].Eval(pts[i], pts[(i+3)%batch]) }},
		{"Gates-NOT-nil-b",
			func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) {
				return one(o.Gates(NOT.Repeat(batch), bits, nil))
			},
			func(i int) []tfhe.LWECiphertext { return []tfhe.LWECiphertext{serial.NOT(bits[i])} }, batch,
			func(i int) bool { return !pts[i] }},
		// Nine items against a tile cap of 8 (below): one to three workers
		// cut them 8+1, 5+4 and 3+3+3 where the ten above go 8+2, 5+5 and
		// 4+4+2, so full and ragged tiles both occur at every count.
		{"LUT-9-items",
			func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) {
				return one(o.LUT(ints[:9], space, []func(int) int{lut}))
			},
			func(i int) []tfhe.LWECiphertext { return []tfhe.LWECiphertext{serial.EvalLUTKS(ints[i], space, lut)} }, 9, nil},
	}
	// Mixed-op gate batches of every width from 1 to 9: at 1–3 workers the
	// tiles hold 1 to 8 items, so a CMux step's tile MAC runs every group
	// size of fft.TileGroup and splits 4+1 … 4+4. Seventeen gates make one
	// worker run three tiles, 8+8+1, with NOTs splitting their keyswitches.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
		ops, a, b := make([]GateOp, n), make([]tfhe.LWECiphertext, n), make([]tfhe.LWECiphertext, n)
		for i := range ops {
			ops[i], a[i] = GateOp((i+n)%len(gateNames)), bits[i%batch]
			if ops[i] != NOT {
				b[i] = bits[(i+n)%batch]
			}
		}
		cases = append(cases, gateCase{fmt.Sprintf("Gates-%d-items", n),
			func(o *StreamingEngine) ([][]tfhe.LWECiphertext, error) { return one(o.Gates(ops, a, b)) },
			func(i int) []tfhe.LWECiphertext { return []tfhe.LWECiphertext{seqGate(serial, ops[i], a[i], b[i])} }, n,
			func(i int) bool { return ops[i].Eval(pts[i%batch], pts[(i+n)%batch]) }})
	}
	want := make([][][]tfhe.LWECiphertext, len(cases))
	for c, tc := range cases {
		want[c] = make([][]tfhe.LWECiphertext, tc.n)
		for i := range want[c] {
			want[c][i] = tc.seq(i)
		}
	}

	type executor struct {
		name string
		ops  *StreamingEngine
	}
	var executors []executor
	for _, row := range streamConfigs() {
		s := NewStreaming(ek, row.cfg)
		// Set I's cap. The test set's own (its accumulators are 2 KB) is 52
		// and would never bind.
		s.tileCap = 8
		executors = append(executors, executor{"streaming/" + row.name, s})
	}
	for _, ex := range executors {
		for c, tc := range cases {
			t.Run(ex.name+"/"+tc.name, func(t *testing.T) {
				got, err := tc.run(ex.ops)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want[c]) {
					t.Fatalf("%d outputs for %d items", len(got), len(want[c]))
				}
				for i := range got {
					if len(got[i]) != len(want[c][i]) {
						t.Fatalf("item %d has %d outputs, want %d", i, len(got[i]), len(want[c][i]))
					}
					for j := range got[i] {
						if !ctEqual(got[i][j], want[c][i][j]) {
							t.Fatalf("output [%d][%d] differs bitwise from the sequential evaluator", i, j)
						}
					}
					if tc.plain != nil && sk.DecryptBool(got[i][0]) != tc.plain(i) {
						t.Fatalf("output %d decrypts to %v, want %v", i, !tc.plain(i), tc.plain(i))
					}
				}
			})
		}
	}
}

// TestCounters checks the aggregation across workers: a batch of n gates
// must account for exactly n PBS and n keyswitches, regardless of how the
// chunks landed on workers.
func TestCounters(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 3, 16)
	eng := NewStreaming(ek, StreamConfig{RotateWorkers: 5})

	if c := eng.Counters(); c.PBSCount != 0 {
		t.Fatalf("fresh engine PBSCount = %d", c.PBSCount)
	}
	if _, err := eng.Gates(XOR.Repeat(8), cts[:8], cts[8:]); err != nil {
		t.Fatal(err)
	}
	c := eng.Counters()
	if c.PBSCount != 8 || c.KSCount != 8 {
		t.Fatalf("after 8 gates: PBSCount=%d KSCount=%d, want 8/8", c.PBSCount, c.KSCount)
	}
	if c.SampleExtracts != 8 {
		t.Fatalf("SampleExtracts = %d, want 8", c.SampleExtracts)
	}

	out, err := eng.LUT(cts, 4, multiTables(4, 1))
	if err != nil || len(out) != 16 {
		t.Fatalf("LUT returned %d outputs: %v", len(out), err)
	}
	if c = eng.Counters(); c.PBSCount != 24 || c.KSCount != 24 || c.MultiValuePBS != 0 {
		t.Fatalf("PBSCount=%d KSCount=%d MultiValuePBS=%d, want 24/24/0", c.PBSCount, c.KSCount, c.MultiValuePBS)
	}

	eng.ResetCounters()
	if c = eng.Counters(); c != (tfhe.OpCounters{}) {
		t.Fatalf("counters not zero after reset: %+v", c)
	}
}

// TestValidation covers the error paths.
func TestValidation(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 5, 4)
	eng := NewStreaming(ek, StreamConfig{RotateWorkers: 2})

	if _, err := eng.Gates(AND.Repeat(2), cts[:2], cts[:3]); err == nil {
		t.Fatal("Gates accepted mismatched operand lengths")
	}
	if _, err := eng.Gates(GateOp(99).Repeat(2), cts[:2], cts[:2]); err == nil {
		t.Fatal("Gates accepted an unknown op")
	}
	if _, err := ParseGate("FROB"); err == nil {
		t.Fatal("ParseGate accepted an unknown mnemonic")
	}
	if op, err := ParseGate("XOR"); err != nil || op != XOR {
		t.Fatalf("ParseGate(XOR) = %v, %v", op, err)
	}

	// Empty batches are no-ops, not panics.
	if out, err := eng.Gates(nil, nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty Gates: %v, %v", out, err)
	}
}

// TestDimensionPanics checks that wrong-dimension inputs are rejected up
// front, from the caller's goroutine — recoverable, instead of an
// unrecoverable panic inside a worker — by every operation.
func TestDimensionPanics(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 13, 4)
	p := tfhe.ParamsTest
	o := NewStreaming(ek, StreamConfig{RotateWorkers: 2})
	big := make([]tfhe.LWECiphertext, len(cts)) // the k·N dimension of an unswitched PBS output
	for i := range big {
		big[i] = tfhe.NewLWECiphertext(p.K * p.N)
	}
	mustPanic := func(api string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted malformed operands", api)
			}
		}()
		f()
	}
	mustPanic("LUT", func() { _, _ = o.LUT(big, 8, multiTables(8, 1)) })
	mustPanic("LUT k=2", func() { _, _ = o.LUT(big, 4, multiTables(4, 2)) })
	mustPanic("Gates a", func() { _, _ = o.Gates([]GateOp{AND, AND}, big[:2], cts[2:]) })
	mustPanic("Gates b", func() { _, _ = o.Gates([]GateOp{NOT, AND}, cts[:2], big[2:]) })

	// The engine must still be usable after a recovered panic.
	if out, err := o.Gates([]GateOp{NAND, NOT}, cts[:2], cts[2:]); err != nil || len(out) != 2 {
		t.Fatalf("engine unusable after recovered panic: %v, %v", out, err)
	}
}

// TestConcurrentBatches submits batches from several goroutines at once;
// the engine serializes them internally. Run with -race in CI.
func TestConcurrentBatches(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 21, 8)
	eng := NewStreaming(ek, StreamConfig{RotateWorkers: runtime.NumCPU()})

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			out, err := eng.Gates(OR.Repeat(4), cts[:4], cts[4:])
			if err != nil {
				done <- err
				return
			}
			for i := range out {
				if got := sk.DecryptBool(out[i]); got != (pts[i] || pts[4+i]) {
					done <- err
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if c := eng.Counters(); c.PBSCount != 16 {
		t.Fatalf("PBSCount = %d after 4 concurrent batches of 4, want 16", c.PBSCount)
	}
}
