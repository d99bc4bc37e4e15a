package engine

import (
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

// TestDeterministicAcrossWorkers is the core batching contract: the same
// batch under the same keys yields bitwise-identical ciphertexts whether
// one worker or eight execute it. (Server-side TFHE ops are deterministic;
// this catches aliasing or scratch-sharing bugs across the pool.)
func TestDeterministicAcrossWorkers(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 42, 24)

	e1 := New(ek, Config{Workers: 1})
	e8 := New(ek, Config{Workers: 8})

	a1, err := e1.BatchGate(NAND, cts[:12], cts[12:])
	if err != nil {
		t.Fatal(err)
	}
	a8, err := e8.BatchGate(NAND, cts[:12], cts[12:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if !ctEqual(a1[i], a8[i]) {
			t.Fatalf("NAND output %d differs between workers=1 and workers=8", i)
		}
		want := !(pts[i] && pts[12+i])
		if got := sk.DecryptBool(a1[i]); got != want {
			t.Fatalf("NAND output %d decrypts to %v, want %v", i, got, want)
		}
	}

	// Raw bootstraps must agree bitwise too (big-key outputs).
	tv := tfhe.NewGLWECiphertext(tfhe.ParamsTest.K, tfhe.ParamsTest.N)
	for j := range tv.Body().Coeffs {
		tv.Body().Coeffs[j] = uint32(j) << 20
	}
	b1 := e1.BatchBootstrap(cts, tv)
	b8 := e8.BatchBootstrap(cts, tv)
	for i := range b1 {
		if !ctEqual(b1[i], b8[i]) {
			t.Fatalf("bootstrap output %d differs between workers=1 and workers=8", i)
		}
	}
}

// TestMatchesSerialEvaluator pins the engine to the plain evaluator: a
// batched gate must equal the one the unbatched API computes.
func TestMatchesSerialEvaluator(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 7, 8)
	_ = sk
	eng := New(ek, Config{Workers: 4})
	serial := tfhe.NewEvaluator(ek)

	for _, op := range []GateOp{NAND, AND, OR, NOR, XOR, XNOR} {
		got, err := eng.BatchGate(op, cts[:4], cts[4:])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			want := seqGate(serial, op, cts[i], cts[4+i])
			if !ctEqual(got[i], want) {
				t.Fatalf("%s output %d differs from the serial evaluator", op, i)
			}
			if dec := sk.DecryptBool(got[i]); dec != op.Eval(pts[i], pts[4+i]) {
				t.Fatalf("%s output %d decrypts to %v, want %v", op, i, dec, op.Eval(pts[i], pts[4+i]))
			}
		}
	}
}

// TestCounters checks the aggregation across workers: a batch of n gates
// must account for exactly n PBS and n keyswitches, regardless of how the
// chunks landed on workers.
func TestCounters(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 3, 16)
	eng := New(ek, Config{Workers: 5})

	if c := eng.Counters(); c.PBSCount != 0 {
		t.Fatalf("fresh engine PBSCount = %d", c.PBSCount)
	}
	if _, err := eng.BatchGate(XOR, cts[:8], cts[8:]); err != nil {
		t.Fatal(err)
	}
	c := eng.Counters()
	if c.PBSCount != 8 || c.KSCount != 8 {
		t.Fatalf("after 8 gates: PBSCount=%d KSCount=%d, want 8/8", c.PBSCount, c.KSCount)
	}
	if c.SampleExtracts != 8 {
		t.Fatalf("SampleExtracts = %d, want 8", c.SampleExtracts)
	}

	out := eng.BatchBootstrap(cts, tfhe.NewGLWECiphertext(tfhe.ParamsTest.K, tfhe.ParamsTest.N))
	if len(out) != 16 {
		t.Fatalf("BatchBootstrap returned %d outputs", len(out))
	}
	if c = eng.Counters(); c.PBSCount != 24 {
		t.Fatalf("PBSCount = %d, want 24", c.PBSCount)
	}
	if eng.Batches() != 2 {
		t.Fatalf("Batches = %d, want 2", eng.Batches())
	}

	eng.ResetCounters()
	if c = eng.Counters(); c != (tfhe.OpCounters{}) {
		t.Fatalf("counters not zero after reset: %+v", c)
	}
}

// TestEvalCircuit runs a dependency-free level (a 1-bit full adder's first
// level plus assorted gates) and checks every output against plaintext
// logic.
func TestEvalCircuit(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 11, 6)
	eng := New(ek, Config{Workers: 3})

	gates := []Gate{
		{Op: XOR, A: 0, B: 1},
		{Op: AND, A: 0, B: 1},
		{Op: OR, A: 2, B: 3},
		{Op: NAND, A: 4, B: 5},
		{Op: NOT, A: 2},
		{Op: XNOR, A: 1, B: 4},
	}
	out, err := eng.EvalCircuit(cts, gates)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(gates) {
		t.Fatalf("EvalCircuit returned %d outputs for %d gates", len(out), len(gates))
	}
	for i, g := range gates {
		var want bool
		if g.Op == NOT {
			want = g.Op.Eval(pts[g.A], false)
		} else {
			want = g.Op.Eval(pts[g.A], pts[g.B])
		}
		if got := sk.DecryptBool(out[i]); got != want {
			t.Fatalf("gate %d (%s %d,%d) decrypts to %v, want %v", i, g.Op, g.A, g.B, got, want)
		}
	}

	// Level-by-level: feed outputs back as the next level's inputs
	// (sum/carry of the full adder).
	lvl2 := []Gate{{Op: XOR, A: 0, B: 2}, {Op: AND, A: 0, B: 2}}
	out2, err := eng.EvalCircuit(out, lvl2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := pts[0] != pts[1]
	cin := pts[2] || pts[3]
	if got := sk.DecryptBool(out2[0]); got != (s0 != cin) {
		t.Fatalf("level-2 sum decrypts to %v, want %v", got, s0 != cin)
	}
	if got := sk.DecryptBool(out2[1]); got != (s0 && cin) {
		t.Fatalf("level-2 carry decrypts to %v, want %v", got, s0 && cin)
	}
}

// TestValidation covers the error paths.
func TestValidation(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 5, 4)
	eng := New(ek, Config{Workers: 2})

	if _, err := eng.BatchGate(AND, cts[:2], cts[:3]); err == nil {
		t.Fatal("BatchGate accepted mismatched operand lengths")
	}
	if _, err := eng.BatchGate(GateOp(99), cts[:2], cts[:2]); err == nil {
		t.Fatal("BatchGate accepted an unknown op")
	}
	if _, err := eng.EvalCircuit(cts, []Gate{{Op: AND, A: 0, B: 7}}); err == nil {
		t.Fatal("EvalCircuit accepted an out-of-range wire index")
	}
	if _, err := eng.EvalCircuit(cts, []Gate{{Op: AND, A: -1, B: 0}}); err == nil {
		t.Fatal("EvalCircuit accepted a negative wire index")
	}
	if _, err := eng.EvalCircuit(cts, []Gate{{Op: GateOp(99), A: 0, B: 1}}); err == nil {
		t.Fatal("EvalCircuit accepted an unknown op")
	}
	if _, err := ParseGate("FROB"); err == nil {
		t.Fatal("ParseGate accepted an unknown mnemonic")
	}
	if op, err := ParseGate("XOR"); err != nil || op != XOR {
		t.Fatalf("ParseGate(XOR) = %v, %v", op, err)
	}

	// Empty batches are no-ops, not panics.
	if out, err := eng.BatchGate(OR, nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty BatchGate: %v, %v", out, err)
	}
	if out := eng.BatchKeySwitch(nil); len(out) != 0 {
		t.Fatalf("empty BatchKeySwitch returned %d outputs", len(out))
	}
}

// TestDimensionPanics checks that wrong-dimension inputs are rejected
// up front, from the caller's goroutine — recoverable, instead of an
// unrecoverable panic inside a worker.
func TestDimensionPanics(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 13, 4)
	eng := New(ek, Config{Workers: 2})
	big := eng.BatchBootstrap(cts, tfhe.NewGLWECiphertext(tfhe.ParamsTest.K, tfhe.ParamsTest.N))

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted wrong-dimension ciphertexts", name)
			}
		}()
		f()
	}
	mustPanic("BatchBootstrap", func() { eng.BatchBootstrap(big, tfhe.NewGLWECiphertext(tfhe.ParamsTest.K, tfhe.ParamsTest.N)) })
	mustPanic("BatchKeySwitch", func() { eng.BatchKeySwitch(cts) })
	mustPanic("BatchEvalLUT", func() { eng.BatchEvalLUT(big, 8, func(x int) int { return x }) })
	mustPanic("BatchGate", func() { eng.BatchGate(AND, big[:2], big[2:]) })
	mustPanic("EvalCircuit", func() { eng.EvalCircuit(big, []Gate{{Op: AND, A: 0, B: 1}}) })

	// The engine must still be usable after a recovered panic.
	if out := eng.BatchKeySwitch(big); len(out) != len(big) {
		t.Fatalf("engine unusable after recovered panic: %d outputs", len(out))
	}
}

// TestBatchEvalLUT checks the PBS+KS pipeline over an integer batch.
func TestBatchEvalLUT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	eng := New(ek, Config{Workers: 4})

	const space = 8
	msgs := make([]int, 12)
	cts := make([]tfhe.LWECiphertext, len(msgs))
	for i := range cts {
		msgs[i] = rng.Intn(space)
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(msgs[i], space), tfhe.ParamsTest.LWEStdDev)
	}
	sq := func(x int) int { return (x * x) % space }
	out := eng.BatchEvalLUT(cts, space, sq)
	for i := range out {
		if got := tfhe.DecodePBSMessage(sk.LWE.Phase(out[i]), space); got != sq(msgs[i]) {
			t.Fatalf("LUT output %d = %d, want %d", i, got, sq(msgs[i]))
		}
	}
}

// TestConcurrentBatches submits batches from several goroutines at once;
// the engine serializes them internally. Run with -race in CI.
func TestConcurrentBatches(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 21, 8)
	eng := New(ek, Config{Workers: runtime.NumCPU()})

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			out, err := eng.BatchGate(OR, cts[:4], cts[4:])
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
