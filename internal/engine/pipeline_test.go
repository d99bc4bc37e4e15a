package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tfhe"
)

// streamConfigs returns the stage/worker configurations the equivalence
// tests sweep: degenerate single-worker pipelines, skewed stage widths,
// and the GOMAXPROCS default. The streaming contract is bitwise equality with
// the sequential evaluator for every one of them.
func streamConfigs() []StreamConfig {
	cfgs := []StreamConfig{
		{RotateWorkers: 1, KSWorkers: 1},
		{RotateWorkers: 2, KSWorkers: 1},
		{RotateWorkers: 3, KSWorkers: 2},
		{}, // defaults: GOMAXPROCS rotate and keyswitch workers
	}
	if n := runtime.NumCPU(); n > 3 {
		cfgs = append(cfgs, StreamConfig{RotateWorkers: n, KSWorkers: n})
	}
	return cfgs
}

// TestStreamGateMatchesSequential is the streaming engine's core property
// test: for random plaintexts and every gate, Gates' output is
// bitwise-equal to the sequential Evaluator's, for every stage/worker
// configuration. Runs under -race in CI (make race).
func TestStreamGateMatchesSequential(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 31, 16)
	serial := tfhe.NewEvaluator(ek)
	ops := []GateOp{NAND, AND, OR, NOR, XOR, XNOR, NOT}

	// Sequential references, computed once per op.
	want := make(map[GateOp][]tfhe.LWECiphertext)
	for _, op := range ops {
		ref := make([]tfhe.LWECiphertext, 8)
		for i := range ref {
			ref[i] = seqGate(serial, op, cts[i], cts[8+i])
		}
		want[op] = ref
	}

	for _, cfg := range streamConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("rot=%d_ks=%d", cfg.RotateWorkers, cfg.KSWorkers), func(t *testing.T) {
			s := NewStreaming(ek, cfg)
			for _, op := range ops {
				var got []tfhe.LWECiphertext
				var err error
				if op == NOT {
					got, err = s.Gates(op.Repeat(8), cts[:8], nil)
				} else {
					got, err = s.Gates(op.Repeat(8), cts[:8], cts[8:])
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if !ctEqual(got[i], want[op][i]) {
						t.Fatalf("%s output %d differs bitwise from the sequential evaluator", op, i)
					}
					dec := sk.DecryptBool(got[i])
					if exp := op.Eval(pts[i], pts[8+i]); dec != exp {
						t.Fatalf("%s output %d decrypts to %v, want %v", op, i, dec, exp)
					}
				}
			}
		})
	}
}

// TestStreamCounters checks that the §IV-C fused pipeline accounts for
// exactly one PBS and one KS per binary gate, aggregated across all stage
// workers, and that the free NOT bypasses the PBS stages.
func TestStreamCounters(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 39, 8)
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 2, KSWorkers: 2})

	if c := s.Counters(); c.PBSCount != 0 {
		t.Fatalf("fresh streaming engine PBSCount = %d", c.PBSCount)
	}
	if _, err := s.Gates(AND.Repeat(4), cts[:4], cts[4:]); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.PBSCount != 4 || c.KSCount != 4 || c.SampleExtracts != 4 {
		t.Fatalf("after 4 gates: PBS=%d KS=%d extracts=%d, want 4/4/4", c.PBSCount, c.KSCount, c.SampleExtracts)
	}

	// NOT is linear: no PBS, no KS.
	if _, err := s.Gates(NOT.Repeat(4), cts[:4], nil); err != nil {
		t.Fatal(err)
	}
	c = s.Counters()
	if c.PBSCount != 4 || c.KSCount != 4 {
		t.Fatalf("NOT performed a bootstrap: PBS=%d KS=%d", c.PBSCount, c.KSCount)
	}

	s.ResetCounters()
	if c = s.Counters(); c != (tfhe.OpCounters{}) {
		t.Fatalf("counters not zero after reset: %+v", c)
	}
}

// TestStreamValidation covers the error and edge paths of the stream API.
func TestStreamValidation(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 41, 4)
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 2})

	if _, err := s.Gates(AND.Repeat(2), cts[:2], cts[:3]); err == nil {
		t.Fatal("Gates accepted mismatched operand lengths")
	}
	if _, err := s.Gates(GateOp(99).Repeat(2), cts[:2], cts[:2]); err == nil {
		t.Fatal("Gates accepted an unknown op")
	}
	if _, err := s.Gates(NOT.Repeat(2), cts[:2], cts[:3]); err == nil {
		t.Fatal("Gates NOT accepted a mismatched second operand")
	}
	if out, err := s.Gates(nil, nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty Gates: %v, %v", out, err)
	}
	if out := s.LUT(nil, 8, func(x int) int { return x }); len(out) != 0 {
		t.Fatalf("empty LUT stream returned %d outputs", len(out))
	}
	if out, err := s.MultiLUT(nil, 4, multiTables(4, 2)); err != nil || len(out) != 0 {
		t.Fatalf("empty MultiLUT stream: %v, %v", out, err)
	}
}

// TestStreamConcurrentCalls submits streams from several goroutines at
// once; the engine serializes them internally. Run with -race in CI.
func TestStreamConcurrentCalls(t *testing.T) {
	sk, ek, cts, pts := testSetup(t, 43, 8)
	s := NewStreaming(ek, StreamConfig{})

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			out, err := s.Gates(OR.Repeat(4), cts[:4], cts[4:])
			if err != nil {
				done <- err
				return
			}
			for i := range out {
				if got := sk.DecryptBool(out[i]); got != (pts[i] || pts[4+i]) {
					done <- fmt.Errorf("concurrent stream output %d decrypts wrong", i)
					return
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
	if c := s.Counters(); c.PBSCount != 16 {
		t.Fatalf("PBSCount = %d after 4 concurrent streams of 4, want 16", c.PBSCount)
	}
}

// TestWorkerDefaultsFollowGOMAXPROCS pins what a zero worker count means:
// the CPUs the process may use. Sized by the host's CPUs instead, a
// CPU-limited process would build one rotate worker per host CPU and
// time-slice them.
func TestWorkerDefaultsFollowGOMAXPROCS(t *testing.T) {
	_, ek, _, _ := testSetup(t, 47, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewStreaming(ek, StreamConfig{})
	if len(s.rot) != 1 || len(s.ks) != 1 {
		t.Errorf("NewStreaming under GOMAXPROCS(1): %d rotate and %d keyswitch evaluators, want 1 and 1", len(s.rot), len(s.ks))
	}
	runtime.GOMAXPROCS(3)
	if s := NewStreaming(ek, StreamConfig{}); len(s.rot) != 3 || len(s.ks) != 3 {
		t.Errorf("NewStreaming under GOMAXPROCS(3): %d rotate and %d keyswitch evaluators, want 3 and 3", len(s.rot), len(s.ks))
	}
}

// TestStreamRecycledTilesMatchSequential runs operations of different
// lengths back to back on ONE engine — 1 gate, 8, 64, then mixed ops with
// NOTs cutting the tiles short — so the later ones fill tiles the earlier
// ones spent, at other tile sizes and slot counts. Each comes back
// bitwise equal to the sequential evaluator, twice over: a tile that kept
// a stale accumulator or rotation amount would show. Runs under -race.
func TestStreamRecycledTilesMatchSequential(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 61, 24)
	serial := tfhe.NewEvaluator(ek)
	rng := rand.New(rand.NewSource(62))
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 2})
	mixed := make([]GateOp, 13)
	for i := range mixed {
		mixed[i] = []GateOp{XOR, NOT, AND, OR, NOT}[i%5]
	}
	for pass := 0; pass < 2; pass++ {
		for _, ops := range [][]GateOp{NAND.Repeat(1), NAND.Repeat(8), NAND.Repeat(64), mixed} {
			a, b := make([]tfhe.LWECiphertext, len(ops)), make([]tfhe.LWECiphertext, len(ops))
			for i := range ops {
				a[i], b[i] = cts[rng.Intn(len(cts))], cts[rng.Intn(len(cts))]
			}
			got, err := s.Gates(ops, a, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !ctEqual(got[i], seqGate(serial, ops[i], a[i], b[i])) {
					t.Fatalf("pass %d, %d gates: item %d (%s) differs bitwise from the sequential evaluator", pass, len(ops), i, ops[i])
				}
			}
		}
	}
	if len(s.free) == 0 {
		t.Error("no spent tile reached the free list")
	}
}

// BenchmarkStreamGates is the shape of the gates_stream_I workload — set
// I, one streaming engine, eight NANDs per call — as a Go benchmark: the
// harness for a pprof of that shape, and its B/op (outputs and channels,
// no accumulators) witnesses the tile recycling.
func BenchmarkStreamGates(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsI)
	x, y := make([]tfhe.LWECiphertext, 8), make([]tfhe.LWECiphertext, 8)
	for i := range x {
		x[i], y[i] = sk.EncryptBool(rng, i%2 == 0), sk.EncryptBool(rng, i%3 == 0)
	}
	s := NewStreaming(ek, StreamConfig{})
	ops := NAND.Repeat(len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Gates(ops, x, y); err != nil {
			b.Fatal(err)
		}
	}
}
