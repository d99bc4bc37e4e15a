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
