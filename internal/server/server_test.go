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

// testRadix is the integer circuits' radix at the test set, base 4.
var testRadix = func() intops.Radix {
	r, err := intops.For(tfhe.ParamsTest)
	if err != nil {
		panic(err)
	}
	return r
}()

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

	got, err := lutBatch(srv, "alice", cts, space, table)
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

// TestConcurrentGateBatches runs several gate requests on one session at
// once, binary gates of one op or of mixed ops and a NOT among them: each
// caller gets its own slice back, bitwise what the sequential evaluator
// computes for its op, and each binary request is one engine call. A NOT
// batch is free negations and makes none.
func TestConcurrentGateBatches(t *testing.T) {
	sk, ek := testKeys(t, 1)
	serial := tfhe.NewEvaluator(ek)
	seqGate := map[engine.GateOp]func(a, b tfhe.LWECiphertext) tfhe.LWECiphertext{
		engine.NAND: serial.NAND, engine.AND: serial.AND, engine.XOR: serial.XOR,
		engine.NOT: func(a, _ tfhe.LWECiphertext) tfhe.LWECiphertext { return serial.NOT(a) },
	}
	for _, tc := range []struct {
		name string
		ops  []engine.GateOp
	}{
		{"one_op", []engine.GateOp{engine.NAND, engine.NAND, engine.NAND, engine.NAND}},
		{"mixed_ops", []engine.GateOp{engine.AND, engine.XOR, engine.NAND, engine.XOR, engine.AND, engine.NAND}},
		{"with_not", []engine.GateOp{engine.AND, engine.NOT, engine.XOR}},
	} {
		ops := tc.ops
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{})
			if err := srv.RegisterKey("alice", ek); err != nil {
				t.Fatal(err)
			}

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

			binary := 0
			for _, op := range ops {
				if op != engine.NOT {
					binary++
				}
			}
			st := srv.Stats().Sessions[0]
			if st.Requests != int64(len(ops)) || st.Streams != int64(binary) {
				t.Errorf("%d requests ran %d engine calls, want %d requests and %d calls", st.Requests, st.Streams, len(ops), binary)
			}
			if st.Items != int64(binary*len(bits)) {
				t.Errorf("items %d, want %d", st.Items, binary*len(bits))
			}
		})
	}
}

// TestConcurrentSessions hammers two sessions from many goroutines — the
// -race e2e of the session sharding, backpressure and shared worker pool.
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

// park fills the session's backpressure slots, so that the next request
// on it stops before the engine, holding its reference to the session's
// key, and returns the function that frees the slots again. The tokens are
// interchangeable, so the parked request may take one of the freed slots
// and give back another.
func park(sess *session) (unpark func()) {
	for range cap(sess.slots) {
		sess.slots <- struct{}{}
	}
	return func() {
		for range cap(sess.slots) {
			<-sess.slots
		}
	}
}

// warmSession returns the warm tier's session of id without holding it
// for the caller, so that its key's references are the warm tier's and
// the requests'.
func warmSession(srv *Server, id string) *session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// TestStatsNonBlocking pins the metrics contract: Stats must return
// promptly even while a request is parked on the session (its
// backpressure slots full, the request holding the session).
func TestStatsNonBlocking(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{Store: NewMemStore()})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	sess := warmSession(srv, "alice")

	unpark := park(sess)
	done := make(chan struct{})
	go func() {
		defer close(done)
		a := encryptBools(sk, 1, []bool{true})
		b := encryptBools(sk, 2, []bool{true})
		if _, err := srv.GateBatch("alice", engine.NAND, a, b); err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}()
	waitFor(t, "the request to hold the session", func() bool { return sess.key.refs.Load() == 2 })

	statsCh := make(chan Stats, 1)
	go func() { statsCh <- srv.Stats() }()
	select {
	case st := <-statsCh:
		if st.Sessions[0].ID != "alice" || st.Sessions[0].Pending != cap(sess.slots) {
			t.Errorf("stats sessions = %+v", st.Sessions)
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats blocked behind a parked request")
	}

	unpark()
	<-done
	if pbs := sess.statsSnapshot().Counters.PBSCount; pbs == 0 {
		t.Error("counters snapshot not refreshed after the request completed")
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
	if _, err := lutBatch(srv, "alice", good, 1, []int{0}); err == nil {
		t.Error("space below 2 accepted")
	}
	if _, err := lutBatch(srv, "alice", good, 8, []int{0}); err == nil {
		t.Error("short LUT table accepted")
	}
	if _, err := lutBatch(srv, "alice", good, 8, []int{0, 1, 2, 3, 4, 5, 6, 8}); err == nil {
		t.Error("out-of-range LUT entry accepted")
	}
	if _, err := lutBatch(srv, "alice", good, 1<<20, make([]int, 1<<20)); err == nil {
		t.Error("space larger than N accepted")
	}

	if rej := srv.Stats().Sessions[0].Rejected; rej == 0 {
		t.Error("rejections not counted")
	}
}

// TestCircuitBatchMatchesSequential pins the circuit-batch path to the
// sequential evaluator bit for bit: an intops multiply DAG executed
// through the session's dispatches must equal node-by-node
// evaluation, and decrypt to the plaintext product.
func TestCircuitBatchMatchesSequential(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}

	const digits = 2
	circ, err := testRadix.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(61))
	x, _ := testRadix.Encrypt(rng, sk, 7, digits)
	y, _ := testRadix.Encrypt(rng, sk, 11, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)

	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := circuitBatch(srv, "alice", circ.Specs(), circ.OutputWires(), inputs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("service circuit outputs differ from sequential evaluation")
	}
	if dec := testRadix.Decrypt(sk, intops.Int{Digits: got}); dec != (7*11)%16 {
		t.Errorf("decrypted product = %d, want %d", dec, (7*11)%16)
	}

	st := srv.Stats().Sessions[0]
	if st.Streams == 0 || st.Items == 0 {
		t.Errorf("circuit dispatches did not run through the session: %+v", st)
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

	if _, err := circuitBatch(srv, "nobody", []sched.NodeSpec{{Kind: sched.SpecInput}}, nil, in, false); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session: %v", err)
	}
	if _, err := circuitBatch(srv, "alice", make([]sched.NodeSpec, maxCircuitNodes+1), nil, nil, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Error("oversized circuit accepted")
	}
	// Outputs amplify the response; a tiny circuit must not be able to
	// request the same wire an unbounded number of times.
	manyOuts := make([]int, maxCircuitNodes+1)
	if _, err := circuitBatch(srv, "alice", []sched.NodeSpec{{Kind: sched.SpecInput}}, manyOuts, in, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Error("oversized outputs accepted")
	}
	if _, err := circuitBatch(srv, "alice", []sched.NodeSpec{{Kind: "bogus"}}, nil, nil, false); err == nil {
		t.Error("unknown node kind accepted")
	}
	if _, err := circuitBatch(srv, "alice", []sched.NodeSpec{{Kind: sched.SpecInput}}, nil, nil, false); err == nil {
		t.Error("input count mismatch accepted")
	}
	// Forward wire reference must be rejected by the rebuilt builder.
	bad := []sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecGate, Op: "AND", A: 0, B: 2}}
	if _, err := circuitBatch(srv, "alice", bad, nil, in, false); err == nil {
		t.Error("forward reference accepted")
	}
	// LUT space beyond the parameter set's N must be rejected even though
	// the spec itself is well-formed.
	hugeSpace := 2 * ek.Params.N
	spec := []sched.NodeSpec{
		{Kind: sched.SpecInput},
		{Kind: sched.SpecLUT, In: 0, Space: hugeSpace, Table: make([]int, hugeSpace)},
	}
	if _, err := circuitBatch(srv, "alice", spec, []int{1}, in, false); err == nil {
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
	if _, err := circuitBatch(srv, "alice", specs, outs, in2, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("mixed-op level of 5 over MaxBatch 4: %v, want ErrBatchTooLarge", err)
	}
	specs, outs = level(2, 2)
	if out, err := circuitBatch(srv, "alice", specs, outs, in2, false); err != nil || len(out) != 4 {
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

// TestConcurrentCircuitBatches runs four identical circuits on one
// session at once: each returns its own outputs, bitwise those of the
// sequential evaluator.
func TestConcurrentCircuitBatches(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	const digits = 2
	circ, err := testRadix.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	x, _ := testRadix.Encrypt(rng, sk, 5, digits)
	y, _ := testRadix.Encrypt(rng, sk, 6, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)
	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	outs := make([][]tfhe.LWECiphertext, 4)
	errs := make([]error, len(outs))
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = circuitBatch(srv, "alice", circ.Specs(), circ.OutputWires(), inputs, false)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Errorf("circuit %d outputs differ from sequential evaluation", i)
		}
	}
}

// TestCircuitDoesNotRefuseItself: a circuit is one request. It holds one
// backpressure token for its whole run, which its dispatches share, so a
// session that admits one request at a time runs the whole circuit and
// refuses nothing, even when the circuit first had to wait for its token.
func TestCircuitDoesNotRefuseItself(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxPending: 1, Store: NewMemStore()})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	sess := warmSession(srv, "alice")
	// Long enough to outlast the park, short enough that a dispatch
	// waiting for a second token would fail the test promptly.
	sess.queueTimeout = 2 * time.Second

	const digits = 2
	circ, err := testRadix.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	x, _ := testRadix.Encrypt(rng, sk, 3, digits)
	y, _ := testRadix.Encrypt(rng, sk, 5, digits)
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
	unpark := park(sess)
	go func() {
		out, err := circuitBatch(srv, "alice", circ.Specs(), circ.OutputWires(), inputs, false)
		done <- result{out, err}
	}()
	waitFor(t, "the circuit to hold the session", func() bool { return sess.key.refs.Load() == 2 })
	unpark()
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

// TestCircuitBesideBatches runs a circuit on a session while gate and
// multi-value batches run on it too, all on the worker pool at once: every
// output is bitwise the sequential evaluator's, Requests counts the
// circuit once, and Streams counts each of its dispatches, at least one
// per PBS level and at most one per rotation.
func TestCircuitBesideBatches(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}

	const digits = 2
	circ, err := testRadix.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := sched.Compile(circ, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(97))
	x, _ := testRadix.Encrypt(rng, sk, 6, digits)
	y, _ := testRadix.Encrypt(rng, sk, 7, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)
	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}

	const callers, rounds = 2, 3
	const space = 4
	tables := mvTestTables(space, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 1+2*callers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := circuitBatch(srv, "alice", circ.Specs(), circ.OutputWires(), inputs, false)
		if err == nil && !reflect.DeepEqual(got, want) {
			err = errors.New("circuit outputs differ from sequential evaluation")
		}
		if err != nil {
			errs <- err
		}
	}()
	for c := range callers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ev := tfhe.NewEvaluator(ek) // an evaluator is not safe for concurrent use
			for r := range rounds {
				a := encryptBools(sk, int64(3000+10*c+r), []bool{true, false})
				b := encryptBools(sk, int64(4000+10*c+r), []bool{true, true})
				out, err := srv.GateBatch("alice", engine.XOR, a, b)
				if err != nil {
					errs <- err
					return
				}
				for i := range out {
					if !tfhe.EqualLWE(out[i], ev.XOR(a[i], b[i])) {
						errs <- fmt.Errorf("gate caller %d round %d item %d differs from the sequential evaluator", c, r, i)
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			ev := tfhe.NewEvaluator(ek)
			for r := range rounds {
				cts := encryptInts(sk, int64(5000+10*c+r), []int{c, r % space}, space)
				out, err := multiLUTBatch(srv, "alice", cts, space, tables)
				if err != nil {
					errs <- err
					return
				}
				for i := range out {
					if !reflect.DeepEqual(out[i], ev.EvalMultiLUTKS(cts[i], space, tfhe.TableFuncs(tables))) {
						errs <- fmt.Errorf("multi-value caller %d round %d input %d differs from the sequential evaluator", c, r, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats().Sessions[0]
	batches := int64(2 * callers * rounds)
	if st.Requests != 1+batches {
		t.Errorf("requests %d, want the circuit's 1 + %d batches", st.Requests, batches)
	}
	cs := schedule.Stats()
	if d := st.Streams - batches; d < int64(cs.Levels) || d > int64(cs.TotalPBS) {
		t.Errorf("the circuit made %d engine calls, want %d..%d", d, cs.Levels, cs.TotalPBS)
	}
	if items := int64(cs.TotalPBS) + batches*2; st.Items != items {
		t.Errorf("items %d, want %d", st.Items, items)
	}
	if st.Coalesced != 0 {
		t.Errorf("coalesced %d, want 0", st.Coalesced)
	}
}
