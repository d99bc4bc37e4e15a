package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestEvalShapeValidation pins the envelope's one-kind-one-meaning rule:
// unknown kinds, payload fields leaking across kinds, and options a kind
// does not take are all rejected before any ciphertext decodes.
func TestEvalShapeValidation(t *testing.T) {
	cases := []struct {
		name string
		req  EvalRequest
		want string
	}{
		{"unknown kind", EvalRequest{Kind: "nonsense"}, "unknown kind"},
		{"empty kind", EvalRequest{}, "unknown kind"},
		{"gate with lut field", EvalRequest{Kind: EvalKindGate, Op: "NOT", Space: 4}, `"space"`},
		{"gate with circuit field", EvalRequest{Kind: EvalKindGate, Op: "AND", Outputs: []int{0}}, `"outputs"`},
		{"lut with gate field", EvalRequest{Kind: EvalKindLUT, Space: 4, Op: "AND"}, `"op"`},
		{"multilut with single table", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Table: []int{0}}, `"table"`},
		{"circuit with cts", EvalRequest{Kind: EvalKindCircuit, Cts: [][]byte{}}, `"cts"`},
		{"optimize on gate", EvalRequest{Kind: EvalKindGate, Op: "NOT", Opts: EvalOpts{Optimize: true}}, "optimize"},
		{"optimize on lut", EvalRequest{Kind: EvalKindLUT, Space: 4, Opts: EvalOpts{Optimize: true}}, "optimize"},
		{"infer with cts", EvalRequest{Kind: EvalKindInfer, Cts: [][]byte{}}, `"cts"`},
		{"infer with table", EvalRequest{Kind: EvalKindInfer, Table: []int{0}}, `"table"`},
	}
	for _, tc := range cases {
		err := validateEvalShape(&tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	ok := EvalRequest{Kind: EvalKindCircuit, Opts: EvalOpts{Optimize: true}}
	if err := validateEvalShape(&ok); err != nil {
		t.Errorf("optimize on circuit rejected: %v", err)
	}
	okInfer := EvalRequest{Kind: EvalKindInfer, Opts: EvalOpts{Optimize: true}}
	if err := validateEvalShape(&okInfer); err != nil {
		t.Errorf("optimize on infer rejected: %v", err)
	}
}

// TestEvalHTTPValidation drives the /v2/eval endpoint's reject paths over
// the wire: malformed JSON, cross-kind fields, and unknown kinds all come
// back 400 bad_request with a message naming the problem.
func TestEvalHTTPValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"not json", "not json"},
		{"unknown kind", `{"client_id":"x","kind":"nope"}`},
		{"cross-kind field", `{"client_id":"x","kind":"gate","op":"NOT","space":4}`},
		{"optimize on lut", `{"client_id":"x","kind":"lut","space":4,"opts":{"optimize":true}}`},
		{"unknown field", `{"client_id":"x","kind":"gate","bogus":1}`},
	} {
		resp, err := http.Post(ts.URL+"/v2/eval", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decode error body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Code != CodeBadRequest {
			t.Errorf("%s: HTTP %d code %q, want 400 bad_request", tc.name, resp.StatusCode, er.Code)
		}
	}
}

// TestClientRetryBodyNotTruncated is the regression test for the retry
// path's body handling: a gate batch whose first attempt is refused 503
// must arrive complete on the retry — the client rebuilds the body reader
// per attempt, so a half-read first request cannot truncate the second.
func TestClientRetryBodyNotTruncated(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	inner := srv.Handler()

	var mu sync.Mutex
	var attempts int
	var firstLen, retryLen int
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/eval" {
			inner.ServeHTTP(w, r)
			return
		}
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			// Read only half the body, then refuse: a client that shares
			// one reader across attempts would replay only the remainder.
			half := make([]byte, r.ContentLength/2)
			io.ReadFull(r.Body, half)
			mu.Lock()
			firstLen = int(r.ContentLength)
			mu.Unlock()
			writeError(w, ErrOverloaded)
			return
		}
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("retry body read: %v", err)
		}
		mu.Lock()
		retryLen = len(data)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(data))
		r.ContentLength = int64(len(data))
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	client := Dial(ts.URL, "alice")
	client.SetRetry(2, time.Millisecond)
	if err := client.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}

	bits := []bool{true, false, true, true, false}
	a := encryptBools(sk, 500, bits)
	out, err := client.GateBatch(engine.NOT, a, nil)
	if err != nil {
		t.Fatalf("retried gate batch: %v", err)
	}
	mu.Lock()
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if retryLen != firstLen || retryLen == 0 {
		t.Errorf("retry body %d bytes, first attempt advertised %d — truncated", retryLen, firstLen)
	}
	mu.Unlock()
	for i, b := range bits {
		if dec := sk.DecryptBool(out[i]); dec != !b {
			t.Errorf("item %d decrypted %v, want %v", i, dec, !b)
		}
	}
}

// The envelope kinds as calls, for tests: each runs one envelope on srv
// through Eval's path, its ciphertexts already decoded.

// lutBatch evaluates a lut envelope.
func lutBatch(srv *Server, id string, cts []tfhe.LWECiphertext, space int, table []int) ([]tfhe.LWECiphertext, error) {
	out, _, err := srv.evalDecoded(EvalRequest{ClientID: id, Kind: EvalKindLUT, Space: space, Table: table}, evalOperands{a: cts})
	return out, err
}

// multiLUTBatch evaluates a multilut envelope; out[i][j] is table j
// applied to cts[i].
func multiLUTBatch(srv *Server, id string, cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	out, k, err := srv.evalDecoded(EvalRequest{ClientID: id, Kind: EvalKindMultiLUT, Space: space, Tables: tables}, evalOperands{a: cts})
	if out == nil {
		return nil, err
	}
	return regroup(out, k), err
}

// circuitBatch evaluates a circuit envelope.
func circuitBatch(srv *Server, id string, specs []sched.NodeSpec, outputs []int, inputs []tfhe.LWECiphertext, optimize bool) ([]tfhe.LWECiphertext, error) {
	req := EvalRequest{ClientID: id, Kind: EvalKindCircuit, Nodes: specs, Outputs: outputs, Opts: EvalOpts{Optimize: optimize}}
	out, _, err := srv.evalDecoded(req, evalOperands{a: inputs})
	return out, err
}

// inferBatch evaluates an infer envelope.
func inferBatch(srv *Server, id string, features []tfhe.LWECiphertext, optimize bool) ([]tfhe.LWECiphertext, error) {
	out, _, err := srv.evalDecoded(EvalRequest{ClientID: id, Kind: EvalKindInfer, Opts: EvalOpts{Optimize: optimize}}, evalOperands{a: features})
	return out, err
}

// TestEvalLimits drives every envelope kind through Server.Eval, the one
// path, at each request bound and one past it: the bound answers
// too_large, a lookup, multi-value batch or circuit the noise rule
// refuses answers 422 noise_budget, a malformed table or op 400, all
// before the request takes a backpressure token (the session's queue is
// full for them, so one that took a token would read overloaded). An
// empty batch answers empty, also without a token. A NOT batch is free
// negations, bitwise tfhe.Evaluator.NOT, and makes no engine call.
func TestEvalLimits(t *testing.T) {
	sk, ek := testKeys(t, 1)
	const maxBatch = 4
	srv := New(Config{MaxBatch: maxBatch})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	sess := warmSession(srv, "alice")
	sess.queueTimeout = time.Millisecond

	bits := func(seed int64, n int) [][]byte { return encodeCiphertexts(encryptBools(sk, seed, make([]bool, n))) }
	ints := func(seed int64, n, space int) [][]byte {
		return encodeCiphertexts(encryptInts(sk, seed, make([]int, n), space))
	}
	table := func(space int) []int { return make([]int, space) }
	// A chain of free negations: nodes and outputs without a bootstrap.
	chain := func(nodes, outputs int) ([]sched.NodeSpec, []int) {
		specs := []sched.NodeSpec{{Kind: sched.SpecInput}}
		for len(specs) < nodes {
			specs = append(specs, sched.NodeSpec{Kind: sched.SpecLin, Terms: []sched.Term{{W: sched.Wire(len(specs) - 1), C: -1}}})
		}
		return specs, make([]int, outputs)
	}
	// One level of n ANDs over two inputs: one dispatch of n gates.
	level := func(n int) ([]sched.NodeSpec, []int) {
		specs := []sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecInput}}
		var outs []int
		for range n {
			outs = append(outs, len(specs))
			specs = append(specs, sched.NodeSpec{Kind: sched.SpecGate, Op: "AND", A: 0, B: 1})
		}
		return specs, outs
	}
	circuit := func(specs []sched.NodeSpec, outs []int, inputs [][]byte) EvalRequest {
		return EvalRequest{Kind: EvalKindCircuit, Nodes: specs, Outputs: outs, Inputs: inputs}
	}
	maxNodes, oneOut := chain(maxCircuitNodes, 1)
	overNodes, _ := chain(maxCircuitNodes+1, 1)
	_, maxOuts := chain(1, maxCircuitNodes)
	_, overOuts := chain(1, maxCircuitNodes+1)
	maxLevel, maxLevelOuts := level(maxBatch)
	overLevel, overLevelOuts := level(maxBatch + 1)
	wide := []sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecLUT, In: 0, Space: 64, Table: table(64)}}
	manyIn := func(n int) ([]sched.NodeSpec, []int) {
		specs := make([]sched.NodeSpec, n)
		for i := range specs {
			specs[i].Kind = sched.SpecInput
		}
		return specs, []int{0}
	}
	maxIn, maxInOut := manyIn(maxBatch)
	overIn, overInOut := manyIn(maxBatch + 1)

	for _, tc := range []struct {
		name   string
		req    EvalRequest
		status int // 0: answers outs outputs
		outs   int
	}{
		{"gate at limit", EvalRequest{Kind: EvalKindGate, Op: "NAND", A: bits(1, maxBatch), B: bits(2, maxBatch)}, 0, maxBatch},
		{"gate over limit", EvalRequest{Kind: EvalKindGate, Op: "NAND", A: bits(1, maxBatch+1), B: bits(2, maxBatch+1)}, http.StatusRequestEntityTooLarge, 0},
		{"gate unknown op", EvalRequest{Kind: EvalKindGate, Op: "FROB", A: bits(1, 1), B: bits(2, 1)}, http.StatusBadRequest, 0},
		{"gate empty", EvalRequest{Kind: EvalKindGate, Op: "NAND", A: [][]byte{}, B: [][]byte{}}, 0, 0},
		{"lut at limit", EvalRequest{Kind: EvalKindLUT, Space: 4, Table: table(4), Cts: ints(3, maxBatch, 4)}, 0, maxBatch},
		{"lut over limit", EvalRequest{Kind: EvalKindLUT, Space: 4, Table: table(4), Cts: ints(3, maxBatch+1, 4)}, http.StatusRequestEntityTooLarge, 0},
		{"lut bad table", EvalRequest{Kind: EvalKindLUT, Space: 4, Table: []int{0, 1, 2, 4}, Cts: ints(3, 1, 4)}, http.StatusBadRequest, 0},
		{"lut refused", EvalRequest{Kind: EvalKindLUT, Space: 64, Table: table(64), Cts: ints(3, 1, 64)}, http.StatusUnprocessableEntity, 0},
		{"lut empty", EvalRequest{Kind: EvalKindLUT, Space: 4, Table: table(4), Cts: [][]byte{}}, 0, 0},
		{"multilut at limit", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: mvTestTables(4, 2), Cts: ints(4, maxBatch/2, 4)}, 0, maxBatch},
		{"multilut over limit", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: mvTestTables(4, 2), Cts: ints(4, maxBatch/2+1, 4)}, http.StatusRequestEntityTooLarge, 0},
		{"multilut bad table", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: [][]int{{0, 1}}, Cts: ints(4, 1, 4)}, http.StatusBadRequest, 0},
		{"multilut refused", EvalRequest{Kind: EvalKindMultiLUT, Space: 8, Tables: mvTestTables(8, 4), Cts: ints(4, 1, 8)}, http.StatusUnprocessableEntity, 0},
		{"multilut empty", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: mvTestTables(4, 2), Cts: [][]byte{}}, 0, 0},
		{"circuit nodes at limit", circuit(maxNodes, oneOut, bits(5, 1)), 0, 1},
		{"circuit nodes over limit", circuit(overNodes, oneOut, bits(5, 1)), http.StatusRequestEntityTooLarge, 0},
		{"circuit outputs at limit", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}}, maxOuts, bits(5, 1)), 0, maxCircuitNodes},
		{"circuit outputs over limit", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}}, overOuts, bits(5, 1)), http.StatusRequestEntityTooLarge, 0},
		{"circuit inputs at limit", circuit(maxIn, maxInOut, bits(6, maxBatch)), 0, 1},
		{"circuit inputs over limit", circuit(overIn, overInOut, bits(6, maxBatch+1)), http.StatusRequestEntityTooLarge, 0},
		{"circuit dispatch at limit", circuit(maxLevel, maxLevelOuts, bits(7, 2)), 0, maxBatch},
		{"circuit dispatch over limit", circuit(overLevel, overLevelOuts, bits(7, 2)), http.StatusRequestEntityTooLarge, 0},
		{"circuit bad op", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecGate, Op: "FROB"}}, []int{1}, bits(8, 1)), http.StatusBadRequest, 0},
		{"circuit refused", circuit(wide, []int{1}, ints(8, 1, 64)), http.StatusUnprocessableEntity, 0},
		{"circuit empty", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}}, nil, bits(8, 1)), 0, 0},
		{"infer at limit", EvalRequest{Kind: EvalKindInfer, Inputs: ints(9, workload.InferFeatures, workload.InferSpace)}, 0, workload.InferClasses},
		{"infer ragged", EvalRequest{Kind: EvalKindInfer, Inputs: ints(9, workload.InferFeatures+1, workload.InferSpace)}, http.StatusBadRequest, 0},
		{"infer over limit", EvalRequest{Kind: EvalKindInfer, Inputs: ints(9, 2*workload.InferFeatures, workload.InferSpace)}, http.StatusRequestEntityTooLarge, 0},
		{"infer empty", EvalRequest{Kind: EvalKindInfer, Inputs: [][]byte{}}, http.StatusBadRequest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.ClientID = "alice"
			if tc.status != 0 || tc.outs == 0 {
				defer park(sess)()
			}
			rejected := sess.rejected.Load()
			resp, err := srv.Eval(tc.req)
			if tc.status == 0 {
				if err != nil || len(resp.Out) != tc.outs {
					t.Fatalf("got %d outputs, err %v; want %d outputs", len(resp.Out), err, tc.outs)
				}
				return
			}
			if status, code := errorStatus(err); status != tc.status {
				t.Fatalf("got HTTP %d (%s, %v), want %d", status, code, err, tc.status)
			}
			// A refusal after the session lookup counts as rejected; one
			// while decoding the envelope has no session to count on.
			if _, err := decodeEvalOperands(&tc.req); err == nil && sess.rejected.Load() != rejected+1 {
				t.Errorf("rejected %d, want %d", sess.rejected.Load(), rejected+1)
			}
		})
	}

	a := encryptBools(sk, 10, []bool{true, false, true})
	streams := sess.streams.Load()
	resp, err := srv.Eval(EvalRequest{ClientID: "alice", Kind: EvalKindGate, Op: "NOT", A: encodeCiphertexts(a)})
	if err != nil {
		t.Fatal(err)
	}
	ev := tfhe.NewEvaluator(ek)
	for i, blob := range resp.Out {
		got, err := wire.UnmarshalLWE(blob)
		if err != nil || !tfhe.EqualLWE(got, ev.NOT(a[i])) {
			t.Errorf("NOT item %d differs from tfhe.Evaluator.NOT (%v)", i, err)
		}
	}
	if n := sess.streams.Load() - streams; n != 0 {
		t.Errorf("a NOT batch made %d engine calls, want none", n)
	}
}
