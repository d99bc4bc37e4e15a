package server

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/intops"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// fixtureKeys caches one deterministic key set per seed for the package's
// tests (test-set keygen is ~10ms, but most tests share seed 1).
var (
	fixtureMu   sync.Mutex
	fixtureKeys = map[int64]keyPair{}
)

type keyPair struct {
	sk tfhe.SecretKeys
	ek tfhe.EvaluationKeys
}

// testKeys returns deterministic test-set keys for a seed.
func testKeys(t *testing.T, seed int64) (tfhe.SecretKeys, tfhe.EvaluationKeys) {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if kp, ok := fixtureKeys[seed]; ok {
		return kp.sk, kp.ek
	}
	sk, ek := tfhe.GenerateKeys(rand.New(rand.NewSource(seed)), tfhe.ParamsTest)
	fixtureKeys[seed] = keyPair{sk, ek}
	return sk, ek
}

// encryptBools encrypts a bit vector under sk with a per-call rng.
func encryptBools(sk tfhe.SecretKeys, seed int64, bits []bool) []tfhe.LWECiphertext {
	rng := rand.New(rand.NewSource(seed))
	cts := make([]tfhe.LWECiphertext, len(bits))
	for i, b := range bits {
		cts[i] = sk.EncryptBool(rng, b)
	}
	return cts
}

// encryptInts encrypts PBS-encoded integers in {0..space-1}.
func encryptInts(sk tfhe.SecretKeys, seed int64, msgs []int, space int) []tfhe.LWECiphertext {
	rng := rand.New(rand.NewSource(seed))
	cts := make([]tfhe.LWECiphertext, len(msgs))
	for i, m := range msgs {
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, space), sk.Params.LWEStdDev)
	}
	return cts
}

// decryptInt decodes a PBS-encoded integer of dimension n.
func decryptInt(sk tfhe.SecretKeys, ct tfhe.LWECiphertext, space int) int {
	return tfhe.DecodePBSMessage(sk.LWE.Phase(ct), space)
}

// TestGateBatchMatchesInProcess pins the service's results to the
// in-process StreamingEngine.Gates path bit for bit: the same inputs
// under the same keys must produce identical ciphertexts, and they must
// decrypt to the gate truth table.
func TestGateBatchMatchesInProcess(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}

	bits := []bool{true, false, true, true, false, false, true, false}
	shift := append(bits[1:], bits[0])
	a := encryptBools(sk, 100, bits)
	b := encryptBools(sk, 200, shift)

	ref := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2})
	for _, op := range []engine.GateOp{engine.NAND, engine.AND, engine.OR, engine.NOR, engine.XOR, engine.XNOR} {
		got, err := srv.GateBatch("alice", op, a, b)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		want, err := ref.Gates(op.Repeat(len(a)), a, b)
		if err != nil {
			t.Fatalf("%v reference: %v", op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: service ciphertexts differ from the in-process engine", op)
		}
		for i := range got {
			if dec := sk.DecryptBool(got[i]); dec != op.Eval(bits[i], shift[i]) {
				t.Errorf("%v item %d: decrypted %v, want %v", op, i, dec, op.Eval(bits[i], shift[i]))
			}
		}
	}

	// Unary NOT: linear, no bootstrap, still must round through the service.
	got, err := srv.GateBatch("alice", engine.NOT, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if dec := sk.DecryptBool(got[i]); dec != !bits[i] {
			t.Errorf("NOT item %d: decrypted %v, want %v", i, dec, !bits[i])
		}
	}
}

// TestLUTBatchMatchesInProcess pins LUT batches to the sequential
// Evaluator.EvalLUTKS path.
func TestLUTBatchMatchesInProcess(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}

	const space = 8
	table := make([]int, space)
	for i := range table {
		table[i] = (i * i) % space
	}
	msgs := []int{0, 1, 3, 5, 7, 2}
	rng := rand.New(rand.NewSource(300))
	cts := make([]tfhe.LWECiphertext, len(msgs))
	for i, m := range msgs {
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, space), sk.Params.LWEStdDev)
	}

	got, err := srv.LUTBatch("alice", cts, space, table)
	if err != nil {
		t.Fatal(err)
	}
	ev := tfhe.NewEvaluator(ek)
	for i, m := range msgs {
		want := ev.EvalLUTKS(cts[i], space, func(x int) int { return table[x] })
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("item %d: service ciphertext differs from EvalLUTKS", i)
		}
		if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[i]), space); dec != table[m] {
			t.Errorf("item %d: decrypted %d, want table[%d]=%d", i, dec, m, table[m])
		}
	}
}

// TestCoalescing holds the engine busy (execMu) while several requests
// arrive, then releases it: all binary-gate requests must ride one stream,
// whether they carry the same op or not (they share the sign test
// vector), a NOT request must not join them (it has no second operand),
// and each caller gets its own slice back, bitwise what the sequential
// evaluator computes for its op.
func TestCoalescing(t *testing.T) {
	sk, ek := testKeys(t, 1)
	serial := tfhe.NewEvaluator(ek)
	seqGate := map[engine.GateOp]func(a, b tfhe.LWECiphertext) tfhe.LWECiphertext{
		engine.NAND: serial.NAND, engine.AND: serial.AND, engine.XOR: serial.XOR,
		engine.NOT: func(a, _ tfhe.LWECiphertext) tfhe.LWECiphertext { return serial.NOT(a) },
	}
	for _, tc := range []struct {
		name      string
		ops       []engine.GateOp
		streams   int64
		coalesced int64
	}{
		{"one_op", []engine.GateOp{engine.NAND, engine.NAND, engine.NAND, engine.NAND}, 1, 4},
		{"mixed_ops", []engine.GateOp{engine.AND, engine.XOR, engine.NAND, engine.XOR, engine.AND, engine.NAND}, 1, 6},
		{"not_apart", []engine.GateOp{engine.AND, engine.NOT, engine.XOR}, 2, 2},
	} {
		ops := tc.ops
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{})
			if err := srv.RegisterKey("alice", ek); err != nil {
				t.Fatal(err)
			}
			sess, err := srv.session("alice")
			if err != nil {
				t.Fatal(err)
			}

			// Stall the engine the way an in-flight stream would.
			sess.execMu.Lock()

			bits := []bool{true, false}
			var wg sync.WaitGroup
			a := make([][]tfhe.LWECiphertext, len(ops))
			b := make([][]tfhe.LWECiphertext, len(ops))
			results := make([][]tfhe.LWECiphertext, len(ops))
			errs := make([]error, len(ops))
			for r, op := range ops {
				a[r] = encryptBools(sk, int64(1000+r), bits)
				if op != engine.NOT {
					b[r] = encryptBools(sk, int64(2000+r), []bool{true, true})
				}
				wg.Add(1)
				go func(r int, op engine.GateOp) {
					defer wg.Done()
					results[r], errs[r] = srv.GateBatch("alice", op, a[r], b[r])
				}(r, op)
			}

			// Wait until every request is in an open group, its leader
			// parked on execMu.
			deadline := time.Now().Add(5 * time.Second)
			for {
				sess.mu.Lock()
				joined := 0
				for _, g := range sess.groups {
					joined += len(g.waiters)
				}
				sess.mu.Unlock()
				if joined == len(ops) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d requests joined a group", joined, len(ops))
				}
				time.Sleep(time.Millisecond)
			}
			sess.execMu.Unlock()
			wg.Wait()

			for r, op := range ops {
				if errs[r] != nil {
					t.Fatalf("request %d: %v", r, errs[r])
				}
				if len(results[r]) != len(bits) {
					t.Fatalf("request %d (%s): %d outputs, want %d", r, op, len(results[r]), len(bits))
				}
				for i, got := range results[r] {
					var bi tfhe.LWECiphertext
					if op != engine.NOT {
						bi = b[r][i]
					}
					if !tfhe.EqualLWE(got, seqGate[op](a[r][i], bi)) {
						t.Errorf("request %d (%s) item %d differs bitwise from the sequential evaluator", r, op, i)
					}
					if dec := sk.DecryptBool(got); dec != op.Eval(bits[i], true) {
						t.Errorf("request %d (%s) item %d: wrong bit", r, op, i)
					}
				}
			}

			st := sess.statsSnapshot()
			if st.Streams != tc.streams {
				t.Errorf("coalesced batch ran %d streams, want %d", st.Streams, tc.streams)
			}
			if st.Coalesced != tc.coalesced {
				t.Errorf("coalesced count %d, want %d", st.Coalesced, tc.coalesced)
			}
			if st.Items != int64(len(ops)*len(bits)) {
				t.Errorf("items %d, want %d", st.Items, len(ops)*len(bits))
			}
		})
	}
}

// TestConcurrentSessions hammers two sessions from many goroutines — the
// -race e2e of the session sharding and group-commit machinery.
func TestConcurrentSessions(t *testing.T) {
	skA, ekA := testKeys(t, 1)
	skB, ekB := testKeys(t, 2)
	srv := New(Config{MaxPending: 4})
	if err := srv.RegisterKey("alice", ekA); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterKey("bob", ekB); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*rounds)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			id, sk := "alice", skA
			if gi%2 == 1 {
				id, sk = "bob", skB
			}
			op := []engine.GateOp{engine.NAND, engine.XOR}[gi%2]
			for round := 0; round < rounds; round++ {
				bits := []bool{gi%2 == 0, round%2 == 0, true}
				shift := []bool{round%2 == 1, gi%3 == 0, false}
				a := encryptBools(sk, int64(10000+gi*100+round), bits)
				b := encryptBools(sk, int64(20000+gi*100+round), shift)
				out, err := srv.GateBatch(id, op, a, b)
				if err != nil {
					errCh <- err
					return
				}
				for i := range out {
					if dec := sk.DecryptBool(out[i]); dec != op.Eval(bits[i], shift[i]) {
						errCh <- fmt.Errorf("session %s goroutine %d round %d item %d: wrong bit", id, gi, round, i)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := srv.Stats()
	if len(st.Sessions) != 2 {
		t.Fatalf("stats has %d sessions, want 2", len(st.Sessions))
	}
	var requests, pending int64
	for _, ss := range st.Sessions {
		requests += ss.Requests
		pending += int64(ss.Pending)
		if ss.Counters.PBSCount == 0 {
			t.Errorf("session %s reports zero PBS", ss.ID)
		}
	}
	if requests != goroutines*rounds {
		t.Errorf("stats counted %d requests, want %d", requests, goroutines*rounds)
	}
	if pending != 0 {
		t.Errorf("pending requests after drain: %d, want 0", pending)
	}
}

// TestStatsNonBlocking pins the metrics contract: Stats must return
// promptly even while the session's engine is occupied by an in-flight
// stream (simulated by holding execMu with a request parked on it).
func TestStatsNonBlocking(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.session("alice")
	if err != nil {
		t.Fatal(err)
	}

	sess.execMu.Lock() // the engine is "busy"
	done := make(chan struct{})
	go func() {
		defer close(done)
		a := encryptBools(sk, 1, []bool{true})
		b := encryptBools(sk, 2, []bool{true})
		if _, err := srv.GateBatch("alice", engine.NAND, a, b); err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}()

	statsCh := make(chan Stats, 1)
	go func() { statsCh <- srv.Stats() }()
	select {
	case st := <-statsCh:
		if st.Sessions[0].ID != "alice" {
			t.Errorf("stats sessions = %+v", st.Sessions)
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats blocked behind an in-flight stream")
	}

	sess.execMu.Unlock()
	<-done
	if pbs := sess.statsSnapshot().Counters.PBSCount; pbs == 0 {
		t.Error("counters snapshot not refreshed after the stream completed")
	}
}

// TestLRUEviction bounds the session cache and checks evicted clients get
// ErrUnknownSession while survivors keep working.
func TestLRUEviction(t *testing.T) {
	sk1, ek1 := testKeys(t, 1)
	_, ek2 := testKeys(t, 2)
	_, ek3 := testKeys(t, 3)
	srv := New(Config{MaxSessions: 2})

	if err := srv.RegisterKey("a", ek1); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterKey("b", ek2); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, err := srv.GateBatch("a", engine.NOT, encryptBools(sk1, 1, []bool{true}), nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterKey("c", ek3); err != nil {
		t.Fatal(err)
	}

	if got := srv.Sessions(); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Errorf("sessions after eviction: %v, want [c a]", got)
	}
	if srv.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", srv.Evictions())
	}
	// Without a store, eviction is lossy and reported as such — the
	// specific "re-upload your key" error, not the generic unknown.
	if _, err := srv.GateBatch("b", engine.NOT, encryptBools(sk1, 2, []bool{true}), nil); !errors.Is(err, ErrSessionEvicted) {
		t.Errorf("evicted session error = %v, want ErrSessionEvicted", err)
	}
	// A never-registered ID stays unknown_session.
	if _, err := srv.GateBatch("nobody", engine.NOT, encryptBools(sk1, 2, []bool{true}), nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session error = %v, want ErrUnknownSession", err)
	}
	// Survivor still works.
	if _, err := srv.GateBatch("a", engine.NOT, encryptBools(sk1, 3, []bool{true}), nil); err != nil {
		t.Errorf("surviving session failed: %v", err)
	}
}

// TestValidation exercises every request-rejection path.
func TestValidation(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxBatch: 4})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	good := encryptBools(sk, 1, []bool{true, false})
	short := good[:1]
	badDim := []tfhe.LWECiphertext{tfhe.NewLWECiphertext(3)}
	big := encryptBools(sk, 2, make([]bool, 5))

	if err := srv.RegisterKey("", ek); !errors.Is(err, ErrEmptyClientID) {
		t.Errorf("empty client id: %v", err)
	}
	if err := srv.RegisterKey("evil", tfhe.EvaluationKeys{Params: ek.Params}); err == nil {
		t.Error("malformed eval key accepted")
	}
	if _, err := srv.GateBatch("nobody", engine.NAND, good, good); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
	if _, err := srv.GateBatch("alice", engine.GateOp(99), good, good); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := srv.GateBatch("alice", engine.NAND, good, short); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := srv.GateBatch("alice", engine.NAND, badDim, badDim); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := srv.GateBatch("alice", engine.NOT, good, good); err == nil {
		t.Error("NOT with two operands accepted")
	}
	if _, err := srv.GateBatch("alice", engine.NAND, big, big); !errors.Is(err, ErrBatchTooLarge) {
		t.Error("oversized batch accepted")
	}
	if out, err := srv.GateBatch("alice", engine.NAND, nil, nil); err != nil || out != nil {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
	if _, err := srv.LUTBatch("alice", good, 1, []int{0}); err == nil {
		t.Error("space below 2 accepted")
	}
	if _, err := srv.LUTBatch("alice", good, 8, []int{0}); err == nil {
		t.Error("short LUT table accepted")
	}
	if _, err := srv.LUTBatch("alice", good, 8, []int{0, 1, 2, 3, 4, 5, 6, 8}); err == nil {
		t.Error("out-of-range LUT entry accepted")
	}
	if _, err := srv.LUTBatch("alice", good, 1<<20, make([]int, 1<<20)); err == nil {
		t.Error("space larger than N accepted")
	}

	if rej := srv.Stats().Sessions[0].Rejected; rej == 0 {
		t.Error("rejections not counted")
	}
}

// TestCircuitBatchMatchesSequential pins the circuit-batch path to the
// sequential evaluator bit for bit: an intops multiply DAG executed
// through the session's coalescing dispatches must equal node-by-node
// evaluation, and decrypt to the plaintext product.
func TestCircuitBatchMatchesSequential(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}

	const digits = 2
	circ, err := intops.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(61))
	x, _ := intops.Encrypt(rng, sk, 7, digits)
	y, _ := intops.Encrypt(rng, sk, 11, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)

	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.CircuitBatch("alice", circ.Specs(), circ.OutputWires(), inputs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("service circuit outputs differ from sequential evaluation")
	}
	if dec := intops.Decrypt(sk, intops.Int{Digits: got}); dec != (7*11)%16 {
		t.Errorf("decrypted product = %d, want %d", dec, (7*11)%16)
	}

	st := srv.Stats().Sessions[0]
	if st.Streams == 0 || st.Items == 0 {
		t.Errorf("circuit dispatches did not go through the session submit path: %+v", st)
	}
}

// TestCircuitBatchValidation exercises the untrusted-input guards of the
// circuit endpoint.
func TestCircuitBatchValidation(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxBatch: 4})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	in := encryptBools(sk, 9, []bool{true})

	if _, err := srv.CircuitBatch("nobody", []sched.NodeSpec{{Kind: sched.SpecInput}}, nil, in, false); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
	if _, err := srv.CircuitBatch("alice", make([]sched.NodeSpec, maxCircuitNodes+1), nil, nil, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Error("oversized circuit accepted")
	}
	// Outputs amplify the response; a tiny circuit must not be able to
	// request the same wire an unbounded number of times.
	manyOuts := make([]int, maxCircuitNodes+1)
	if _, err := srv.CircuitBatch("alice", []sched.NodeSpec{{Kind: sched.SpecInput}}, manyOuts, in, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Error("oversized outputs accepted")
	}
	if _, err := srv.CircuitBatch("alice", []sched.NodeSpec{{Kind: "bogus"}}, nil, nil, false); err == nil {
		t.Error("unknown node kind accepted")
	}
	if _, err := srv.CircuitBatch("alice", []sched.NodeSpec{{Kind: sched.SpecInput}}, nil, nil, false); err == nil {
		t.Error("input count mismatch accepted")
	}
	// Forward wire reference must be rejected by the rebuilt builder.
	bad := []sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecGate, Op: "AND", A: 0, B: 2}}
	if _, err := srv.CircuitBatch("alice", bad, nil, in, false); err == nil {
		t.Error("forward reference accepted")
	}
	// LUT space beyond the parameter set's N must be rejected even though
	// the spec itself is well-formed.
	hugeSpace := 2 * ek.Params.N
	spec := []sched.NodeSpec{
		{Kind: sched.SpecInput},
		{Kind: sched.SpecLUT, In: 0, Space: hugeSpace, Table: make([]int, hugeSpace)},
	}
	if _, err := srv.CircuitBatch("alice", spec, []int{1}, in, false); err == nil {
		t.Error("LUT space beyond N accepted")
	}
	// A level's binary gates are one dispatch whatever their ops, so the
	// batch bound sees the whole level: 3 ANDs + 2 XORs over MaxBatch 4 is
	// refused, 2 + 2 runs.
	in2 := encryptBools(sk, 10, []bool{true, false})
	level := func(ands, xors int) ([]sched.NodeSpec, []int) {
		specs := []sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecInput}}
		var outs []int
		for i := 0; i < ands+xors; i++ {
			op := "AND"
			if i >= ands {
				op = "XOR"
			}
			specs = append(specs, sched.NodeSpec{Kind: sched.SpecGate, Op: op, A: 0, B: 1})
			outs = append(outs, len(specs)-1)
		}
		return specs, outs
	}
	specs, outs := level(3, 2)
	if _, err := srv.CircuitBatch("alice", specs, outs, in2, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("mixed-op level of 5 over MaxBatch 4: %v, want ErrBatchTooLarge", err)
	}
	specs, outs = level(2, 2)
	if out, err := srv.CircuitBatch("alice", specs, outs, in2, false); err != nil || len(out) != 4 {
		t.Errorf("mixed-op level of 4 at MaxBatch 4: %d outputs, err %v", len(out), err)
	}
	// No level is wider than its circuit, so under the defaults the node
	// bound already keeps every level inside the batch bound.
	if def := (Config{}).withDefaults(); maxCircuitNodes > def.MaxBatch {
		t.Errorf("maxCircuitNodes %d > default MaxBatch %d: a valid circuit could trip the level bound", maxCircuitNodes, def.MaxBatch)
	}
	if rej := srv.Stats().Sessions[0].Rejected; rej == 0 {
		t.Error("circuit rejections not counted")
	}
}

// TestCircuitBatchCoalesces runs two concurrent identical circuits and
// checks that at least some of their level dispatches shared a stream
// (the group-commit window spans the engine-busy period, so with two
// in-flight circuits of many levels, coalescing is overwhelmingly
// likely; tolerate zero only by retrying a few times to keep the test
// deterministic-ish under scheduling noise).
func TestCircuitBatchCoalesces(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	const digits = 2
	circ, err := intops.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	x, _ := intops.Encrypt(rng, sk, 5, digits)
	y, _ := intops.Encrypt(rng, sk, 6, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)

	for attempt := 0; attempt < 5; attempt++ {
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := srv.CircuitBatch("alice", circ.Specs(), circ.OutputWires(), inputs, false)
				if err == nil && len(out) != digits {
					err = fmt.Errorf("got %d outputs", len(out))
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if srv.Stats().Sessions[0].Coalesced > 0 {
			return
		}
	}
	t.Log("no coalescing observed after 5 attempts (scheduling-dependent); correctness already verified")
}

// TestCircuitDoesNotRefuseItself: a circuit is one request. It holds one
// backpressure token for its whole run, which its dispatches share, so a
// session that admits one request at a time, and refuses a second after a
// millisecond, runs the whole circuit and refuses nothing, even while its
// first dispatch waits for the session's engine.
func TestCircuitDoesNotRefuseItself(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxPending: 1})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	sess := srv.sessions["alice"]
	srv.mu.Unlock()
	sess.queueTimeout = time.Millisecond

	const digits = 2
	circ, err := intops.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	x, _ := intops.Encrypt(rng, sk, 3, digits)
	y, _ := intops.Encrypt(rng, sk, 5, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)
	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		out []tfhe.LWECiphertext
		err error
	}
	done := make(chan result, 1)
	sess.execMu.Lock()
	go func() {
		out, err := srv.CircuitBatch("alice", circ.Specs(), circ.OutputWires(), inputs, false)
		done <- result{out, err}
	}()
	time.Sleep(20 * time.Millisecond)
	sess.execMu.Unlock()
	res := <-done
	if res.err != nil {
		t.Fatalf("CircuitBatch: %v", res.err)
	}
	if !reflect.DeepEqual(res.out, want) {
		t.Error("service circuit outputs differ from sequential evaluation")
	}
	if n := sess.rejected.Load(); n != 0 {
		t.Errorf("the session refused %d of the circuit's own dispatches", n)
	}
}
