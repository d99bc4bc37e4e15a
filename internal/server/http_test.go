package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/intops"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// TestHTTPEndToEnd is the acceptance path of the service layer: a client
// registers its eval key over HTTP, evaluates a gate batch through the
// JSON-framed-binary API, and the results are bitwise identical to the
// in-process engine's (hence decrypt to the same bits).
func TestHTTPEndToEnd(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := Dial(ts.URL, "alice")
	if client.ClientID() != "alice" {
		t.Fatalf("ClientID = %q", client.ClientID())
	}
	if err := client.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}

	bits := []bool{true, false, true, true, false, false}
	shift := append(bits[1:], bits[0])
	a := encryptBools(sk, 500, bits)
	b := encryptBools(sk, 600, shift)

	got, err := client.GateBatch(engine.NAND, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2}).Gates(engine.NAND.Repeat(len(a)), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("HTTP gate batch differs from the in-process engine")
	}
	for i := range got {
		if dec := sk.DecryptBool(got[i]); dec != !(bits[i] && shift[i]) {
			t.Errorf("item %d decrypted %v, want %v", i, dec, !(bits[i] && shift[i]))
		}
	}

	// LUT batch over HTTP.
	table := []int{0, 1, 4, 1, 0, 1, 4, 1}
	rngMsgs := []int{2, 6, 3}
	lutIn := encryptInts(sk, 800, rngMsgs, 8)
	lut, err := client.LUTBatch(lutIn, 8, table)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range rngMsgs {
		if dec := decryptInt(sk, lut[i][0], 8); dec != table[m] {
			t.Errorf("LUT item %d: decrypted %d, want %d", i, dec, table[m])
		}
	}

	// Stats over HTTP.
	var st Stats
	if err := callJSON(client, http.MethodGet, "/v1/stats", &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].ID != "alice" {
		t.Fatalf("stats sessions = %+v", st.Sessions)
	}
	if st.Sessions[0].Counters.PBSCount == 0 {
		t.Error("stats report zero PBS after gate batches")
	}
}

// TestHTTPConcurrentClients drives several HTTP clients in parallel — the
// -race check on the full network path.
func TestHTTPConcurrentClients(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 3
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sk, ek := testKeys(t, int64(10+ci))
			cl := Dial(ts.URL, "client-"+string(rune('a'+ci)))
			if err := cl.RegisterKey(ek); err != nil {
				errCh <- err
				return
			}
			bits := []bool{ci%2 == 0, true, false}
			a := encryptBools(sk, int64(900+ci), bits)
			b := encryptBools(sk, int64(950+ci), bits)
			out, err := cl.GateBatch(engine.XOR, a, b)
			if err != nil {
				errCh <- err
				return
			}
			for i := range out {
				if sk.DecryptBool(out[i]) != false { // x XOR x = false
					t.Errorf("client %d item %d: XOR(x,x) != false", ci, i)
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := len(srv.Sessions()); got != clients {
		t.Errorf("%d sessions registered, want %d", got, clients)
	}
}

// TestHTTPErrors exercises the HTTP error mapping: bad JSON, bad binary,
// unknown sessions, wrong method/path.
func TestHTTPErrors(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxBatch: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/v1/sessions/x", "not a key"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad eval key: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/sessions/x", ""); resp.StatusCode != http.StatusLengthRequired {
		t.Errorf("empty key upload: status %d, want 411", resp.StatusCode)
	}
	// A body of unknown length travels chunked: refused unread.
	if resp, err := http.Post(ts.URL+"/v1/sessions/x", "application/octet-stream", io.MultiReader(strings.NewReader("chunked"))); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusLengthRequired {
		t.Errorf("chunked key upload: status %d, want 411", resp.StatusCode)
	}
	if resp := post(EvalPath("ghost"), string(headerFrame(`{"kind":"gate","op":"NAND"}`))); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	if resp := post(EvalPath("x"), string(headerFrame(`{"kind":"gate","op":"FROB"}`))); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", resp.StatusCode)
	}
	if resp := post(EvalPath("x"), string(headerFrame(`{"kind":"gate","op":"NAND","zzz":1}`))); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// Oversized batch → 413 via the typed error mapping.
	cl := Dial(ts.URL, "alice")
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}
	big := encryptBools(sk, 1, []bool{true, true, true})
	body, err := appendEvalFrame(EvalRequest{Kind: EvalKindGate, Op: "NAND"}, big, big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+EvalPath("alice"), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}

	// Client-side error surfacing carries the server's message, named
	// once, with its status and code.
	if _, err := cl.GateBatch(engine.NAND, big, big); err == nil || !strings.Contains(err.Error(), "batch size limit") {
		t.Errorf("client error = %v, want batch size limit message", err)
	} else if msg := err.Error(); strings.Count(msg, "server:") != 1 || !strings.Contains(msg, "HTTP 413") || !strings.Contains(msg, "code "+CodeTooLarge) {
		t.Errorf("client error = %q, want server: once, HTTP 413 and code %s", msg, CodeTooLarge)
	}

	// Method/path mismatches.
	if resp, err := http.Get(ts.URL + EvalPath("alice")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET eval: status %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestHTTPCircuitBatch runs a whole intops addition DAG through the HTTP
// circuit endpoint and pins it to the sequential evaluator.
func TestHTTPCircuitBatch(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := Dial(ts.URL, "carol")
	if err := client.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}

	const digits = 3
	b := sched.NewBuilder()
	b.Output(testRadix.BuildAdd(b, b.Inputs(digits), b.Inputs(digits))...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(81))
	x, _ := testRadix.Encrypt(rng, sk, 27, digits)
	y, _ := testRadix.Encrypt(rng, sk, 45, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)

	got, err := client.CircuitBatch(circ, inputs, EvalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("HTTP circuit outputs differ from sequential evaluation")
	}
	if dec := testRadix.Decrypt(sk, intops.Int{Digits: got}); dec != (27+45)%64 {
		t.Errorf("decrypted sum = %d, want %d", dec, (27+45)%64)
	}

	// Malformed circuit over HTTP surfaces as a 400-class error.
	if _, err := client.CircuitBatch(circ, inputs[:2], EvalOpts{}); err == nil {
		t.Error("input count mismatch accepted over HTTP")
	}
}

// TestHTTPCircuitBatchOptimize runs the multiplication DAG through the
// circuit endpoint with the optimize flag: the server-side pass pipeline
// rewrites the circuit (fewer rotations than the naive schedule), and
// the outputs still decrypt to the right product. Bitwise equality with
// the unoptimized reply is explicitly NOT promised — fusion and packing
// re-synthesize bootstraps — so this test pins the decode contract.
func TestHTTPCircuitBatchOptimize(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := Dial(ts.URL, "opt")
	if err := client.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}

	const digits = 2
	circ, err := testRadix.MulCircuit(digits)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(82))
	x, _ := testRadix.Encrypt(rng, sk, 13, digits)
	y, _ := testRadix.Encrypt(rng, sk, 9, digits)
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)

	got, err := client.CircuitBatch(circ, inputs, EvalOpts{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec := testRadix.Decrypt(sk, intops.Int{Digits: got}); dec != (13*9)%16 {
		t.Errorf("optimized product = %d, want %d", dec, (13*9)%16)
	}
	// The unoptimized path still works side by side on the same session.
	plain, err := client.CircuitBatch(circ, inputs, EvalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if dec := testRadix.Decrypt(sk, intops.Int{Digits: plain}); dec != (13*9)%16 {
		t.Errorf("unoptimized product = %d, want %d", dec, (13*9)%16)
	}
}

// closeCountingStore is a MemStore that records how often it is closed.
type closeCountingStore struct {
	*MemStore
	closes atomic.Int32
}

// Close implements SessionStore.
func (s *closeCountingStore) Close() error {
	s.closes.Add(1)
	return s.MemStore.Close()
}

// TestBatchBoundHoldsEngineCalls: the batch bound the service checks on
// a circuit's plan bounds every engine call that runs it. AND(x, y) is an
// output and OR(x, y) feeds two more gates, so the plan is the OR alone,
// then the AND and the OR's two users, one 3-gate dispatch that runs once
// the OR resolves. At MaxBatch 2 the service refuses the circuit with 413
// too_large before it takes a backpressure token: every token is held, so
// a request that reached for one would answer 503 overloaded. At MaxBatch
// 3 it runs: its 4 gates go out in at least 2 engine calls, so none is
// over 3.
func TestBatchBoundHoldsEngineCalls(t *testing.T) {
	sk, ek := testKeys(t, 1)
	b := sched.NewBuilder()
	x, y := b.Input(), b.Input()
	and, or := b.Gate(engine.AND, x, y), b.Gate(engine.OR, x, y)
	b.Output(and, b.Gate(engine.XOR, or, x), b.Gate(engine.NAND, or, y))
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := encryptBools(sk, 11, []bool{true, false})
	for _, maxBatch := range []int{2, 3} {
		srv := New(Config{MaxBatch: maxBatch})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cl := Dial(ts.URL, "alice")
		cl.SetRetry(0, 0)
		if err := cl.RegisterKey(ek); err != nil {
			t.Fatal(err)
		}
		if maxBatch == 2 {
			sess := warmSession(srv, "alice")
			sess.queueTimeout = time.Millisecond
			unpark := park(sess)
			_, err := cl.CircuitBatch(circ, in, EvalOpts{})
			unpark()
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Code != CodeTooLarge {
				t.Errorf("MaxBatch 2: %v, want 413 %s", err, CodeTooLarge)
			}
			if st := srv.Stats().Sessions[0]; st.Streams != 0 {
				t.Errorf("MaxBatch 2: the refused circuit made %d engine calls", st.Streams)
			}
			continue
		}
		out, err := cl.CircuitBatch(circ, in, EvalOpts{})
		if err != nil {
			t.Fatalf("MaxBatch 3: %v", err)
		}
		for i, want := range []bool{false, false, true} {
			if got := sk.DecryptBool(out[i]); got != want {
				t.Errorf("MaxBatch 3: output %d decrypts to %v, want %v", i, got, want)
			}
		}
		if st := srv.Stats().Sessions[0]; st.Items != 4 || st.Streams < 2 {
			t.Errorf("MaxBatch 3: %d items in %d engine calls, want 4 in at least 2", st.Items, st.Streams)
		}
	}
}

// TestServeClosesStoreOnEveryExit pins what Serve owns: however it comes
// to return — asked to drain, or with the listener failing underneath a
// server nobody asked to drain — the session store has been closed, once.
func TestServeClosesStoreOnEveryExit(t *testing.T) {
	for _, exit := range []string{"drained", "listener closed"} {
		t.Run(exit, func(t *testing.T) {
			store := &closeCountingStore{MemStore: NewMemStore()}
			srv := New(Config{Store: store})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			drain := make(chan struct{})
			done := make(chan error, 1)
			go func() { done <- srv.Serve(l, drain) }()
			if _, status := getHealthz(t, "http://"+l.Addr().String()); status != http.StatusOK {
				t.Fatalf("healthz while serving: status %d", status)
			}

			if exit == "drained" {
				close(drain)
			} else {
				l.Close()
			}
			err = <-done
			if exit == "drained" && err != nil {
				t.Errorf("Serve after a drain = %v, want nil", err)
			}
			if exit == "listener closed" && !errors.Is(err, net.ErrClosed) {
				t.Errorf("Serve over a closed listener = %v, want net.ErrClosed", err)
			}
			if n := store.closes.Load(); n != 1 {
				t.Errorf("store closed %d times, want exactly once", n)
			}
			if !srv.Draining() {
				t.Error("server still admits work after Serve returned")
			}
		})
	}
}

// getHealthz fetches base's /v1/healthz: the decoded body and the status.
// callJSON sends a bodiless request for path through cl's retry loop and
// decodes a 200 reply's JSON into out; a refusal returns its *APIError.
// Tests read the operator routes through it — GET /v1/stats, GET
// /v1/sessions, DELETE /v1/sessions/{id} — which no client method wraps.
func callJSON(cl *Client, method, path string, out any) error {
	return cl.retry(func() (*http.Request, error) {
		return http.NewRequest(method, cl.base+path, nil)
	}, jsonInto(out))
}

func getHealthz(t *testing.T, base string) (HealthResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return h, resp.StatusCode
}
