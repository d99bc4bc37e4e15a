package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// does not take are all rejected before any ciphertext decodes — the
// header's by validateEvalShape, an in-process envelope's ciphertext lists
// by evalLists.
func TestEvalShapeValidation(t *testing.T) {
	validate := func(req EvalRequest) error {
		if _, _, err := evalLists(req); err != nil {
			return err
		}
		return validateEvalShape(&req)
	}
	cases := []struct {
		name string
		req  EvalRequest
		want string
	}{
		{"unknown kind", EvalRequest{Kind: "nonsense"}, "unknown kind"},
		{"empty kind", EvalRequest{}, "unknown kind"},
		{"gate with lut field", EvalRequest{Kind: EvalKindGate, Op: "NOT", Space: 4}, `"space"`},
		{"gate with circuit field", EvalRequest{Kind: EvalKindGate, Op: "AND", Outputs: []int{0}}, `"outputs"`},
		{"lut kind", EvalRequest{Kind: "lut", Space: 4, Tables: [][]int{{0}}}, "unknown kind"},
		{"multilut with gate field", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Op: "AND"}, `"op"`},
		{"circuit with cts", EvalRequest{Kind: EvalKindCircuit, Cts: [][]byte{}}, `"cts"`},
		{"optimize on gate", EvalRequest{Kind: EvalKindGate, Op: "NOT", Opts: EvalOpts{Optimize: true}}, "optimize"},
		{"optimize on multilut", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Opts: EvalOpts{Optimize: true}}, "optimize"},
		{"infer with cts", EvalRequest{Kind: EvalKindInfer, Cts: [][]byte{}}, `"cts"`},
		{"infer with tables", EvalRequest{Kind: EvalKindInfer, Tables: [][]int{{0}}}, `"tables"`},
	}
	for _, tc := range cases {
		err := validate(tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	ok := EvalRequest{Kind: EvalKindCircuit, Opts: EvalOpts{Optimize: true}}
	if err := validate(ok); err != nil {
		t.Errorf("optimize on circuit rejected: %v", err)
	}
	okInfer := EvalRequest{Kind: EvalKindInfer, Opts: EvalOpts{Optimize: true}}
	if err := validate(okInfer); err != nil {
		t.Errorf("optimize on infer rejected: %v", err)
	}
}

// rawFrame builds a request frame by hand — the prefix with the header's
// length and the given dimension and counts, then header and records as
// given — so tests can send frames the client would never make.
func rawFrame(header string, n, ca, cb int, records []byte) []byte {
	f := appendWords(nil, frameMagic, frameVersion, len(header), n, ca, cb)
	return append(append(f, header...), records...)
}

// headerFrame is rawFrame without records.
func headerFrame(header string) []byte { return rawFrame(header, 0, 0, 0, nil) }

// TestEvalHTTPValidation drives the eval endpoint's reject paths over the
// wire: a body that is not a frame, a bad header — malformed, with
// cross-kind or unknown fields, an unknown kind — and records that do not
// match their prefix all come back 400 bad_request with a message naming
// the problem.
func TestEvalHTTPValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	record := make([]byte, 4*(1+1)) // one record of mask length 1
	not := `{"kind":"gate","op":"NOT"}`
	pastBody := headerFrame(not)
	binary.LittleEndian.PutUint32(pastBody[8:], uint32(len(not)+1))
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"not a frame", []byte("not json")},
		{"json body", []byte(`{"kind":"gate","op":"NOT","a":[]}`)},
		{"unknown kind", headerFrame(`{"kind":"nope"}`)},
		{"lut kind", headerFrame(`{"kind":"lut","space":4,"tables":[[0,1,2,3]]}`)},
		{"cross-kind field", headerFrame(`{"kind":"gate","op":"NOT","space":4}`)},
		{"optimize on multilut", headerFrame(`{"kind":"multilut","space":4,"opts":{"optimize":true}}`)},
		{"unknown field", headerFrame(`{"kind":"gate","bogus":1}`)},
		{"client id in header", headerFrame(`{"client_id":"x","kind":"gate","op":"NOT"}`)},
		{"header past body", pastBody},
		{"data after header", headerFrame(not + " {}")},
		{"b on multilut", rawFrame(`{"kind":"multilut","space":4,"tables":[[0,1,2,3]]}`, 1, 1, 1, append(record, record...))},
		{"trailing bytes", rawFrame(not, 1, 1, 0, append(record, 0))},
		{"truncated records", rawFrame(not, 1, 2, 0, record)},
	} {
		resp, err := http.Post(ts.URL+EvalPath("x"), "application/octet-stream", bytes.NewReader(tc.body))
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

// TestEvalRefusedBeforeBody pins the body contract an eval request shares
// with a key upload: a request that declares no size is refused 411 and
// one that declares more than MaxBatchBodyBytes 413, both before a body
// byte is read, so a sender that waits for 100 Continue never sends one.
func TestEvalRefusedBeforeBody(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name   string
		size   int64
		status int
		code   string
	}{
		{"no length", -1, http.StatusLengthRequired, CodeBadRequest},
		{"over the bound", MaxBatchBodyBytes + 1, http.StatusRequestEntityTooLarge, CodeTooLarge},
	} {
		body := &touchBody{Reader: strings.NewReader("a frame")}
		req, err := http.NewRequest(http.MethodPost, ts.URL+EvalPath("alice"), body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = tc.size
		req.Header.Set("Expect", "100-continue")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeReply(resp, nil); !isAPICode(err, tc.code) || resp.StatusCode != tc.status {
			t.Errorf("%s: %v, want HTTP %d %s", tc.name, err, tc.status, tc.code)
		}
		resp.Body.Close()
		if body.touched.Load() {
			t.Errorf("%s: the body was read before the refusal", tc.name)
		}
	}
}

// TestEvalBodyGrowsWithBytes pins that an eval request's buffer grows with
// the bytes that arrive, not with the size the request declares: a peer
// that declares MaxBatchBodyBytes and sends a few bytes is refused 400
// without the server ever holding a buffer of the declared size.
func TestEvalBodyGrowsWithBytes(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, EvalPath("alice"), strings.NewReader("a frame"))
	req.ContentLength = MaxBatchBodyBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEvalBody(req)
	runtime.ReadMemStats(&after)
	if status, _ := errorStatus(err); status != http.StatusBadRequest {
		t.Errorf("a body short of its declared size: %v, want HTTP 400", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > MaxBatchBodyBytes/8 {
		t.Errorf("reading 7 bytes of a declared %d allocated %d bytes", MaxBatchBodyBytes, grown)
	}
	// A body of several steps arrives whole.
	body := bytes.Repeat([]byte("frame"), 3*readStep/5+1)
	req = httptest.NewRequest(http.MethodPost, EvalPath("alice"), bytes.NewReader(body))
	if got, err := ReadEvalBody(req); err != nil || !bytes.Equal(got, body) {
		t.Errorf("a %d-byte body read as %d bytes, %v", len(body), len(got), err)
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
		if !strings.HasPrefix(r.URL.Path, "/v2/eval/") {
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

// lutBatch evaluates a one-table multilut envelope.
func lutBatch(srv *Server, id string, cts []tfhe.LWECiphertext, space int, table []int) ([]tfhe.LWECiphertext, error) {
	out, _, err := srv.evalDecoded(EvalRequest{ClientID: id, Kind: EvalKindMultiLUT, Space: space, Tables: [][]int{table}}, evalOperands{a: cts})
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

// TestEvalLimits drives every envelope kind as a frame through
// evalFrame, what the eval endpoint runs, at each request bound and one
// past it: the bound answers too_large, a lookup, multi-value batch or
// circuit the noise rule refuses answers 422 noise_budget, a malformed
// table or op 400, all before the request takes a backpressure token (the
// session's queue is full for them, so one that took a token would read
// overloaded). An empty batch answers empty, also without a token. A NOT
// batch is free negations, bitwise tfhe.Evaluator.NOT, and makes no
// engine call.
func TestEvalLimits(t *testing.T) {
	sk, ek := testKeys(t, 1)
	const maxBatch = 4
	srv := New(Config{MaxBatch: maxBatch})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	sess := warmSession(srv, "alice")
	sess.queueTimeout = time.Millisecond

	bits := func(seed int64, n int) []tfhe.LWECiphertext { return encryptBools(sk, seed, make([]bool, n)) }
	ints := func(seed int64, n, space int) []tfhe.LWECiphertext {
		return encryptInts(sk, seed, make([]int, n), space)
	}
	table := func(space int) []int { return make([]int, space) }
	lut := func(space int, tbl []int) EvalRequest {
		return EvalRequest{Kind: EvalKindMultiLUT, Space: space, Tables: [][]int{tbl}}
	}
	multilut := func(space, k int) EvalRequest {
		return EvalRequest{Kind: EvalKindMultiLUT, Space: space, Tables: mvTestTables(space, k)}
	}
	nand := EvalRequest{Kind: EvalKindGate, Op: "NAND"}
	infer := EvalRequest{Kind: EvalKindInfer}
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
	circuit := func(specs []sched.NodeSpec, outs []int) EvalRequest {
		return EvalRequest{Kind: EvalKindCircuit, Nodes: specs, Outputs: outs}
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
		a, b   []tfhe.LWECiphertext
		status int // 0: answers outs outputs
		outs   int
	}{
		{"gate at limit", nand, bits(1, maxBatch), bits(2, maxBatch), 0, maxBatch},
		{"gate over limit", nand, bits(1, maxBatch+1), bits(2, maxBatch+1), http.StatusRequestEntityTooLarge, 0},
		{"gate unknown op", EvalRequest{Kind: EvalKindGate, Op: "FROB"}, bits(1, 1), bits(2, 1), http.StatusBadRequest, 0},
		{"gate empty", nand, nil, nil, 0, 0},
		{"lut at limit", lut(4, table(4)), ints(3, maxBatch, 4), nil, 0, maxBatch},
		{"lut over limit", lut(4, table(4)), ints(3, maxBatch+1, 4), nil, http.StatusRequestEntityTooLarge, 0},
		{"lut bad table", lut(4, []int{0, 1, 2, 4}), ints(3, 1, 4), nil, http.StatusBadRequest, 0},
		{"lut refused", lut(64, table(64)), ints(3, 1, 64), nil, http.StatusUnprocessableEntity, 0},
		{"lut empty", lut(4, table(4)), nil, nil, 0, 0},
		{"multilut at limit", multilut(4, 2), ints(4, maxBatch/2, 4), nil, 0, maxBatch},
		{"multilut over limit", multilut(4, 2), ints(4, maxBatch/2+1, 4), nil, http.StatusRequestEntityTooLarge, 0},
		{"multilut bad table", EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: [][]int{{0, 1}}}, ints(4, 1, 4), nil, http.StatusBadRequest, 0},
		{"multilut refused", multilut(8, 4), ints(4, 1, 8), nil, http.StatusUnprocessableEntity, 0},
		{"multilut empty", multilut(4, 2), nil, nil, 0, 0},
		{"circuit nodes at limit", circuit(maxNodes, oneOut), bits(5, 1), nil, 0, 1},
		{"circuit nodes over limit", circuit(overNodes, oneOut), bits(5, 1), nil, http.StatusRequestEntityTooLarge, 0},
		{"circuit outputs at limit", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}}, maxOuts), bits(5, 1), nil, 0, maxCircuitNodes},
		{"circuit outputs over limit", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}}, overOuts), bits(5, 1), nil, http.StatusRequestEntityTooLarge, 0},
		{"circuit inputs at limit", circuit(maxIn, maxInOut), bits(6, maxBatch), nil, 0, 1},
		{"circuit inputs over limit", circuit(overIn, overInOut), bits(6, maxBatch+1), nil, http.StatusRequestEntityTooLarge, 0},
		{"circuit dispatch at limit", circuit(maxLevel, maxLevelOuts), bits(7, 2), nil, 0, maxBatch},
		{"circuit dispatch over limit", circuit(overLevel, overLevelOuts), bits(7, 2), nil, http.StatusRequestEntityTooLarge, 0},
		{"circuit bad op", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}, {Kind: sched.SpecGate, Op: "FROB"}}, []int{1}), bits(8, 1), nil, http.StatusBadRequest, 0},
		{"circuit refused", circuit(wide, []int{1}), ints(8, 1, 64), nil, http.StatusUnprocessableEntity, 0},
		{"circuit empty", circuit([]sched.NodeSpec{{Kind: sched.SpecInput}}, nil), bits(8, 1), nil, 0, 0},
		{"infer at limit", infer, ints(9, workload.InferFeatures, workload.InferSpace), nil, 0, workload.InferClasses},
		{"infer ragged", infer, ints(9, workload.InferFeatures+1, workload.InferSpace), nil, http.StatusBadRequest, 0},
		{"infer over limit", infer, ints(9, 2*workload.InferFeatures, workload.InferSpace), nil, http.StatusRequestEntityTooLarge, 0},
		{"infer empty", infer, nil, nil, http.StatusBadRequest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := appendEvalFrame(tc.req, tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if tc.status != 0 || tc.outs == 0 {
				defer park(sess)()
			}
			rejected := sess.rejected.Load()
			reply, err := srv.evalFrame("alice", frame)
			if tc.status == 0 {
				out, _, derr := decodeEvalReply(reply)
				if err != nil || derr != nil || len(out) != tc.outs {
					t.Fatalf("got %d outputs, err %v, %v; want %d outputs", len(out), err, derr, tc.outs)
				}
				return
			}
			if status, code := errorStatus(err); status != tc.status {
				t.Fatalf("got HTTP %d (%s, %v), want %d", status, code, err, tc.status)
			}
			// A refusal of a well-formed envelope counts as rejected, the
			// batch bound the decoder checks first included; a malformed
			// one has no session to count on.
			if _, _, err := decodeEvalFrame(frame, math.MaxInt32); err == nil && sess.rejected.Load() != rejected+1 {
				t.Errorf("rejected %d, want %d", sess.rejected.Load(), rejected+1)
			}
		})
	}
	// The decoder's batch bound comes after the session lookup, as
	// translate's does: an unknown session is told so first.
	over, err := appendEvalFrame(nand, bits(1, maxBatch+1), bits(2, maxBatch+1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.evalFrame("nobody", over); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("an oversized batch for an unknown session: %v, want %v", err, ErrUnknownSession)
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
