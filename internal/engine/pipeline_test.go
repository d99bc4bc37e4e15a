package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/tfhe"
)

// streamConfig is one engine configuration the equivalence tests sweep.
type streamConfig struct {
	name string
	cfg  StreamConfig
}

// streamConfigs returns the worker counts the equivalence tests sweep: one
// worker, two and three, eight (more workers than most batches have tiles)
// and the GOMAXPROCS default. The streaming contract is bitwise equality
// with the sequential evaluator for every one of them. A row's name is
// rot=W_ks=K, W its worker count, as it was when the keyswitch ran in a
// stage of its own K workers wide; the names are kept so that each row's
// test id stays the same across history.
func streamConfigs() []streamConfig {
	return []streamConfig{
		{"rot=1_ks=1", StreamConfig{RotateWorkers: 1}},
		{"rot=2_ks=1", StreamConfig{RotateWorkers: 2}},
		{"rot=3_ks=2", StreamConfig{RotateWorkers: 3}},
		{"rot=8_ks=3", StreamConfig{RotateWorkers: 8}},
		{"rot=0_ks=0", StreamConfig{}},
	}
}

// TestStreamGateMatchesSequential is the streaming engine's core property
// test: for random plaintexts and every gate, Gates' output is
// bitwise-equal to the sequential Evaluator's, for every worker count.
// Runs under -race in CI (make race).
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

	for _, row := range streamConfigs() {
		t.Run(row.name, func(t *testing.T) {
			s := NewStreaming(ek, row.cfg)
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
// exactly one PBS and one KS per binary gate, aggregated across all
// workers, and that the free NOT bypasses the PBS stages.
func TestStreamCounters(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 39, 8)
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 2})

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
	if out, err := s.LUT(nil, 8, func(x int) int { return x }); err != nil || len(out) != 0 {
		t.Fatalf("empty LUT stream: %v, %v", out, err)
	}
	if _, err := s.LUT(cts[:1], 2*ek.Params.N, func(x int) int { return x }); err == nil {
		t.Fatal("LUT accepted a space its test vector cannot hold (space > N)")
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
// CPU-limited process would build one worker per host CPU and time-slice
// them.
func TestWorkerDefaultsFollowGOMAXPROCS(t *testing.T) {
	_, ek, _, _ := testSetup(t, 47, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if s := NewStreaming(ek, StreamConfig{}); len(s.workers) != 1 {
		t.Errorf("NewStreaming under GOMAXPROCS(1): %d workers, want 1", len(s.workers))
	}
	runtime.GOMAXPROCS(3)
	if s := NewStreaming(ek, StreamConfig{}); len(s.workers) != 3 {
		t.Errorf("NewStreaming under GOMAXPROCS(3): %d workers, want 3", len(s.workers))
	}
}

// TestStreamRecycledTilesMatchSequential runs operations of different
// lengths back to back on ONE engine — 1 gate, 8, 64, then mixed ops whose
// NOTs split a tile's outputs for the keyswitch gather — so the later ones
// fill the slots the earlier ones used, at other tile sizes and slot
// counts. Each comes back bitwise equal to the sequential evaluator, twice
// over: a slot that kept a stale accumulator or rotation amount would
// show. Runs under -race.
func TestStreamRecycledTilesMatchSequential(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 61, 24)
	serial := tfhe.NewEvaluator(ek)
	rng := rand.New(rand.NewSource(62))
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 2})
	s.tileCap = 8 // set I's, so that the 64 gates come in tiles of the cap
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
	for i, w := range s.workers {
		if len(w.acc) > s.tileCap || len(w.ms) > s.tileCap {
			t.Errorf("worker %d holds %d accumulator and %d rotation slots, more than the tile cap %d", i, len(w.acc), len(w.ms), s.tileCap)
		}
	}
}

// heldSlots reads the process-wide CPU budget.
func heldSlots() int {
	cpus.Lock()
	defer cpus.Unlock()
	return cpus.held
}

// charge makes the budget hold n more slots, as if other operations were
// running, until the test ends.
func charge(t *testing.T, n int) {
	cpus.Lock()
	cpus.held += n
	cpus.Unlock()
	t.Cleanup(func() { release(n) })
}

// TestConcurrentEnginesMatchSequential drives three engines, each over a
// key set of its own, from concurrent goroutines, so that their operations
// contend for the shared CPU budget and tile by what the others leave
// free. Every output is bitwise equal to its key's sequential evaluator,
// and once all have returned no slot is held. Runs under -race at 1, 2
// and 4 CPUs (make race).
func TestConcurrentEnginesMatchSequential(t *testing.T) {
	sizes := []int{4, 9, 1, 17, 8}
	type keyed struct {
		s          *StreamingEngine
		ops        []GateOp
		a, b, want []tfhe.LWECiphertext
	}
	engines := make([]keyed, 3)
	for e := range engines {
		_, ek, cts, _ := testSetup(t, int64(71+e), 34)
		serial := tfhe.NewEvaluator(ek)
		k := keyed{s: NewStreaming(ek, StreamConfig{RotateWorkers: 2}), ops: make([]GateOp, 17), a: cts[:17], b: cts[17:]}
		k.s.tileCap = 8 // set I's, so that 17 items are more tiles than workers
		for i := range k.ops {
			k.ops[i] = []GateOp{NAND, XOR, NOT, AND}[(i+e)%4]
			k.want = append(k.want, seqGate(serial, k.ops[i], k.a[i], k.b[i]))
		}
		engines[e] = k
	}
	errs := make(chan error, len(engines))
	for e, k := range engines {
		go func() {
			for _, n := range sizes {
				got, err := k.s.Gates(k.ops[:n], k.a[:n], k.b[:n])
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if !ctEqual(got[i], k.want[i]) {
						errs <- fmt.Errorf("engine %d, %d gates: item %d (%s) differs bitwise from the sequential evaluator", e, n, i, k.ops[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range engines {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if h := heldSlots(); h != 0 {
		t.Errorf("%d budget slots held after every operation returned", h)
	}
}

// meetOp is NAND over a and b, except that the first item of each tile of
// size items waits until every tile has begun: the operation completes
// promptly only if each of its tiles runs on a worker of its own.
func meetOp(t *testing.T, s *StreamingEngine, a, b []tfhe.LWECiphertext, size int) op {
	tiles := len(a) / size
	var arrived sync.WaitGroup
	arrived.Add(tiles)
	met := make(chan struct{})
	go func() {
		arrived.Wait()
		close(met)
	}()
	return op{n: len(a), testVec: s.signTV, keyswitch: true,
		prepare: func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			if i%size == 0 {
				arrived.Done()
				select {
				case <-met:
				case <-time.After(10 * time.Second):
					t.Errorf("the tile at item %d ran while another of the %d tiles waited", i, tiles)
				}
			}
			return gateInput(ev, NAND, a, b, i)
		}}
}

// TestTilesFollowTheBudget pins the tile rule by the workers' counters.
// Behind operations that hold every CPU, eight gates on a 2-worker engine
// run as one tile of eight on the caller's worker. Alone, they tile as
// they always have, min(⌈n/W⌉, cap): two tiles of four on a 2-worker
// engine, eight of one on an 8-worker engine, one on each worker.
func TestTilesFollowTheBudget(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 75, 16)
	a, b := cts[:8], cts[8:]
	pbs := func(s *StreamingEngine) []int64 {
		n := make([]int64, len(s.workers))
		for i, w := range s.workers {
			n[i] = w.ev.Counters.PBSCount
		}
		return n
	}
	t.Run("contended", func(t *testing.T) {
		s := NewStreaming(ek, StreamConfig{RotateWorkers: 2})
		s.tileCap = 8
		charge(t, runtime.GOMAXPROCS(0))
		if _, err := s.Gates(NAND.Repeat(8), a, b); err != nil {
			t.Fatal(err)
		}
		if got := pbs(s); got[0] != 8 || got[1] != 0 {
			t.Errorf("PBS per worker %v behind a full budget, want [8 0]: one tile on the caller's worker", got)
		}
	})
	for _, w := range []int{2, 8} {
		t.Run(fmt.Sprintf("alone_W=%d", w), func(t *testing.T) {
			s := NewStreaming(ek, StreamConfig{RotateWorkers: w})
			s.tileCap = 8
			s.runOne(meetOp(t, s, a, b, 8/w))
			for i, n := range pbs(s) {
				if n != int64(8/w) {
					t.Errorf("worker %d ran %d PBS alone, want one tile of %d", i, n, 8/w)
				}
			}
			if h := heldSlots(); h != 0 {
				t.Errorf("%d budget slots held after the operation returned", h)
			}
		})
	}
}

// TestPanicReleasesSlots: a prepare that panics unwinds through exec's
// deferred release, so the caller that recovers leaves the budget as it
// found it, and the engine serves its next operation.
func TestPanicReleasesSlots(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 77, 8)
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the operation did not pass its prepare's panic to the caller")
			}
		}()
		s.runOne(op{n: 4, testVec: s.signTV,
			prepare: func(*tfhe.Evaluator, int) (tfhe.LWECiphertext, bool) { panic("prepare failed") }})
	}()
	if h := heldSlots(); h != 0 {
		t.Errorf("%d budget slots held after the panic was recovered", h)
	}
	if _, err := s.Gates(NAND.Repeat(4), cts[:4], cts[4:]); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStreamGates is the shape of the gates_stream_I workload — set
// I, one streaming engine, eight NANDs per call — as a Go benchmark: the
// harness for a pprof of that shape, and its B/op (the outputs and the
// workers' goroutines, no accumulators) witnesses that the workers keep
// their slots.
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
