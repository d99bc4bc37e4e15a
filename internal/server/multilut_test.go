package server

import (
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// mvTestTables builds k distinct tables over space.
func mvTestTables(space, k int) [][]int {
	tables := make([][]int, k)
	for i := range tables {
		tables[i] = make([]int, space)
		for m := range tables[i] {
			tables[i][m] = (m*m + i) % space
		}
	}
	return tables
}

// TestMultiLUTBatchMatchesInProcess pins the service's multi-value path
// to the in-process streaming engine bit for bit and to the plaintext
// tables.
func TestMultiLUTBatchMatchesInProcess(t *testing.T) {
	sk, ek := testKeys(t, 1)
	const space, k = 4, 3
	tables := mvTestTables(space, k)
	msgs := []int{0, 3, 1, 2, 2}
	cts := encryptInts(sk, 901, msgs, space)

	srv := New(Config{})
	if err := srv.RegisterKey("c1", ek); err != nil {
		t.Fatal(err)
	}
	got, err := multiLUTBatch(srv, "c1", cts, space, tables)
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.NewStreaming(ek, engine.StreamConfig{})
	want, err := eng.LUT(cts, space, tfhe.TableFuncs(tables))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d output groups, want %d", len(got), len(msgs))
	}
	for i := range got {
		if len(got[i]) != k {
			t.Fatalf("input %d: %d outputs, want %d", i, len(got[i]), k)
		}
		for j := range got[i] {
			if !reflectEqualLWE(got[i][j], want[i*k+j]) {
				t.Fatalf("output [%d][%d] differs from the in-process engine", i, j)
			}
			if dec := decryptInt(sk, got[i][j], space); dec != tables[j][msgs[i]] {
				t.Fatalf("output [%d][%d] decodes to %d, want %d", i, j, dec, tables[j][msgs[i]])
			}
		}
	}
}

// reflectEqualLWE compares two LWE ciphertexts bitwise.
func reflectEqualLWE(a, b tfhe.LWECiphertext) bool { return tfhe.EqualLWE(a, b) }

// TestConcurrentMultiLUTBatches: concurrent fan-out requests with an
// identical table list each get their own k outputs back per input,
// bitwise what the sequential evaluator computes.
func TestConcurrentMultiLUTBatches(t *testing.T) {
	sk, ek := testKeys(t, 1)
	const space, k = 4, 2
	const callers = 4
	tables := mvTestTables(space, k)

	srv := New(Config{})
	if err := srv.RegisterKey("c1", ek); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	outs := make([][][]tfhe.LWECiphertext, callers)
	errs := make([]error, callers)
	msgs := make([][]int, callers)
	cts := make([][]tfhe.LWECiphertext, callers)
	for c := 0; c < callers; c++ {
		msgs[c] = []int{c % space, (c + 1) % space}
		cts[c] = encryptInts(sk, int64(910+c), msgs[c], space)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c], errs[c] = multiLUTBatch(srv, "c1", cts[c], space, tables)
		}(c)
	}
	wg.Wait()

	ev := tfhe.NewEvaluator(ek)
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		for i := range msgs[c] {
			want := ev.EvalLUTKS(cts[c][i], space, tfhe.TableFuncs(tables))
			for j := 0; j < k; j++ {
				if !tfhe.EqualLWE(outs[c][i][j], want[j]) {
					t.Fatalf("caller %d output [%d][%d] differs bitwise from the sequential evaluator", c, i, j)
				}
				if dec := decryptInt(sk, outs[c][i][j], space); dec != tables[j][msgs[c][i]] {
					t.Fatalf("caller %d output [%d][%d] decodes to %d, want %d", c, i, j, dec, tables[j][msgs[c][i]])
				}
			}
		}
	}
}

// TestMultiLUTValidationServer: malformed requests are rejected before
// they can join a group.
func TestMultiLUTValidationServer(t *testing.T) {
	sk, ek := testKeys(t, 1)
	const space = 4
	cts := encryptInts(sk, 920, []int{1}, space)

	srv := New(Config{MaxBatch: 8})
	if err := srv.RegisterKey("c1", ek); err != nil {
		t.Fatal(err)
	}
	if _, err := multiLUTBatch(srv, "nope", cts, space, mvTestTables(space, 2)); err == nil {
		t.Fatal("unknown session accepted")
	}
	if _, err := multiLUTBatch(srv, "c1", cts, 1, [][]int{{0}}); err == nil {
		t.Fatal("space < 2 accepted")
	}
	over := make([][]int, tfhe.ParamsTest.N) // space·k > N
	for i := range over {
		over[i] = []int{0, 1, 2, 3}
	}
	if _, err := multiLUTBatch(srv, "c1", cts, space, over); err == nil {
		t.Fatal("space·k > N accepted")
	}
	if _, err := multiLUTBatch(srv, "c1", cts, space, [][]int{{0, 1}}); err == nil {
		t.Fatal("short table accepted")
	}
	if _, err := multiLUTBatch(srv, "c1", cts, space, [][]int{{0, 1, 2, 9}}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	// k outputs per input amplify the response: 3 inputs × 3 tables = 9 > 8.
	three := encryptInts(sk, 921, []int{0, 1, 2}, space)
	if _, err := multiLUTBatch(srv, "c1", three, space, mvTestTables(space, 3)); err == nil {
		t.Fatal("amplified batch above MaxBatch accepted")
	}
	bad := []tfhe.LWECiphertext{tfhe.NewLWECiphertext(tfhe.ParamsTest.SmallN + 1)}
	if _, err := multiLUTBatch(srv, "c1", bad, space, mvTestTables(space, 2)); err == nil {
		t.Fatal("wrong-dimension ciphertext accepted")
	}
	if out, err := multiLUTBatch(srv, "c1", nil, space, mvTestTables(space, 2)); err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

// TestHTTPMultiLUTBatch exercises the endpoint end to end through the
// client: wire codec, JSON framing, and the multi-value engine path.
func TestHTTPMultiLUTBatch(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := Dial(ts.URL, "http-mv")
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}
	const space, k = 8, 3
	tables := mvTestTables(space, k)
	msgs := []int{7, 0, 5}
	cts := encryptInts(sk, 930, msgs, space)
	out, err := cl.LUTBatch(cts, space, tables...)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(msgs) {
		t.Fatalf("got %d output groups, want %d", len(out), len(msgs))
	}
	for i := range out {
		for j := 0; j < k; j++ {
			if dec := decryptInt(sk, out[i][j], space); dec != tables[j][msgs[i]] {
				t.Fatalf("output [%d][%d] decodes to %d, want %d", i, j, dec, tables[j][msgs[i]])
			}
		}
	}

	// The endpoint validates like the in-process call.
	if _, err := cl.LUTBatch(cts, 1, []int{0}); err == nil {
		t.Fatal("HTTP endpoint accepted space < 2")
	}
	// A fourth table shrinks the margin to 1/128, which the test set's
	// modulus switch leaves at 2.4σ (about one group in 40 decodes
	// wrong): the one noise rule refuses it.
	_, err = cl.LUTBatch(cts, space, mvTestTables(space, k+1)...)
	var api *APIError
	if !errors.As(err, &api) || api.Code != CodeNoiseBudget {
		t.Fatalf("space 8 × 4 tables: got %v, want a noise_budget refusal", err)
	}
}

// TestCircuitMultiLUTGroup runs a circuit containing an explicit
// multi-value group through the HTTP circuit-batch path and pins it to
// the sequential reference bitwise — the scheduler's fan-out dispatch
// runs through the same session method as standalone requests.
func TestCircuitMultiLUTGroup(t *testing.T) {
	sk, ek := testKeys(t, 1)
	const space = 4
	b := sched.NewBuilder()
	in := b.Input()
	ws := b.LUT(in, space, mvTestTables(space, 3)...)
	b.Output(ws...)
	b.Output(b.LUT(ws[1], space, []int{3, 2, 1, 0})...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, "mv-circuit")
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}

	inputs := encryptInts(sk, 940, []int{2}, space)
	got, err := cl.CircuitBatch(circ, inputs, EvalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflectEqualLWE(got[i], want[i]) {
			t.Fatalf("circuit-batch output %d differs from sequential", i)
		}
	}

	// A circuit whose multi-value group cannot pack under the session's
	// parameters is rejected by server-side validation.
	over := sched.NewBuilder()
	oin := over.Input()
	overTables := make([][]int, tfhe.ParamsTest.N) // space·k > N
	for i := range overTables {
		overTables[i] = []int{0, 1, 2, 3}
	}
	over.Output(over.LUT(oin, space, overTables...)...)
	overCirc, err := over.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CircuitBatch(overCirc, inputs, EvalOpts{}); err == nil {
		t.Fatal("unpackable multi-value circuit accepted")
	}
}
