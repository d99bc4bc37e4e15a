package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// TestRestoreBitwiseAcrossRestart is the durability contract end to end:
// a session registered against one server instance, evaluated, drained
// to disk, and served again by a fresh instance over the same directory
// must produce bitwise-identical gate results without a key re-upload.
func TestRestoreBitwiseAcrossRestart(t *testing.T) {
	sk, ek := testKeys(t, 1)
	dir := t.TempDir()

	srvA, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srvA.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	a := encryptBools(sk, 1, []bool{true, false, true, true})
	b := encryptBools(sk, 2, []bool{true, true, false, true})
	pre, err := srvA.GateBatch("alice", engine.NAND, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := srvA.Drain(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same directory knows nothing
	// warm; the first request restores from disk.
	srvB, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Drain()
	post, err := srvB.GateBatch("alice", engine.NAND, a, b)
	if err != nil {
		t.Fatalf("restored session failed: %v", err)
	}
	for i := range pre {
		if !tfhe.EqualLWE(pre[i], post[i]) {
			t.Fatalf("output %d differs across restart", i)
		}
	}
	if srvB.Restores() != 1 {
		t.Errorf("restores = %d, want 1", srvB.Restores())
	}
	// And the restored results still decrypt correctly.
	for i, ct := range post {
		want := !(([]bool{true, false, true, true})[i] && ([]bool{true, true, false, true})[i])
		if got := sk.DecryptBool(ct); got != want {
			t.Errorf("restored NAND[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestEvictionTransparentWithStore proves LRU eviction becomes invisible
// when a store is present: the evicted session restores on demand
// instead of erroring.
func TestEvictionTransparentWithStore(t *testing.T) {
	sk1, ek1 := testKeys(t, 1)
	_, ek2 := testKeys(t, 2)
	srv := New(Config{MaxSessions: 1, Store: NewMemStore()})

	if err := srv.RegisterKey("a", ek1); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterKey("b", ek2); err != nil { // evicts "a"
		t.Fatal(err)
	}
	if srv.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", srv.Evictions())
	}
	out, err := srv.GateBatch("a", engine.NOT, encryptBools(sk1, 1, []bool{true}), nil)
	if err != nil {
		t.Fatalf("evicted-but-persisted session: %v, want transparent restore", err)
	}
	if got := sk1.DecryptBool(out[0]); got != false {
		t.Errorf("NOT(true) = %v after restore", got)
	}
	if srv.Restores() != 1 {
		t.Errorf("restores = %d, want 1", srv.Restores())
	}
	// Unknown IDs still fail even with a store.
	if _, err := srv.GateBatch("ghost", engine.NOT, encryptBools(sk1, 1, []bool{true}), nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown id: %v, want ErrUnknownSession", err)
	}
}

// TestConcurrentRestoreSingleflight proves concurrent warm misses for
// one ID share a single store restore.
func TestConcurrentRestoreSingleflight(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxSessions: 1, Store: NewMemStore()})
	if err := srv.RegisterKey("a", ek); err != nil {
		t.Fatal(err)
	}
	_, ek2 := testKeys(t, 2)
	if err := srv.RegisterKey("b", ek2); err != nil { // evict "a"
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.GateBatch("a", engine.NOT, encryptBools(sk, int64(i+1), []bool{true}), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if srv.Restores() != 1 {
		t.Errorf("restores = %d, want exactly 1 shared restore", srv.Restores())
	}
}

// stallingStore is a MemStore whose first Get reads the stored key and
// then waits for release before handing it over: a restore caught between
// its store read and its install.
type stallingStore struct {
	*MemStore
	once    sync.Once
	reading chan struct{} // closed once the stalled Get has read the key
	release chan struct{} // closed by the test to let it return
}

// Get implements SessionStore.
func (s *stallingStore) Get(clientID string) (io.ReadCloser, int64, error) {
	stall := false
	s.once.Do(func() { stall = true })
	r, size, err := s.MemStore.Get(clientID)
	if err != nil || !stall {
		return r, size, err
	}
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	close(s.reading)
	<-s.release
	return io.NopCloser(bytes.NewReader(blob)), size, nil
}

// startStalledRestore registers "a" (key seed 1) and "b" on a one-session
// server over a stallingStore, so "a" is evicted, and starts a NOT on "a"
// whose restore stalls after reading the key. It returns once the key is
// read, with the channel the NOT's error arrives on.
func startStalledRestore(t *testing.T) (*Server, *stallingStore, <-chan error) {
	t.Helper()
	sk, ekA := testKeys(t, 1)
	_, ekB := testKeys(t, 2)
	store := &stallingStore{MemStore: NewMemStore(), reading: make(chan struct{}), release: make(chan struct{})}
	srv := New(Config{MaxSessions: 1, Store: store})
	if err := srv.RegisterKey("a", ekA); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterKey("b", ekB); err != nil { // evicts "a"
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.GateBatch("a", engine.NOT, encryptBools(sk, 1, []bool{true}), nil)
		done <- err
	}()
	<-store.reading
	return srv, store, done
}

// TestRegisterDuringRestore: a key registered while a restore of the same
// ID is in flight wins. The restore read the old key, so it must not
// install its session over the new one, nor add a second LRU entry.
func TestRegisterDuringRestore(t *testing.T) {
	srv, store, done := startStalledRestore(t)
	sk, ek := testKeys(t, 3)
	if err := srv.RegisterKey("a", ek); err != nil {
		t.Fatal(err)
	}
	close(store.release)
	if err := <-done; err != nil {
		t.Fatalf("request during the restore: %v", err)
	}
	if ids := srv.Sessions(); len(ids) != 1 || ids[0] != "a" {
		t.Errorf("Sessions() = %v, want [a]", ids)
	}
	rng := rand.New(rand.NewSource(4))
	x, y := make([]bool, 32), make([]bool, 32)
	for i := range x {
		x[i], y[i] = rng.Intn(2) == 1, rng.Intn(2) == 1
	}
	out, err := srv.GateBatch("a", engine.AND, encryptBools(sk, 5, x), encryptBools(sk, 6, y))
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, ct := range out {
		if sk.DecryptBool(ct) != (x[i] && y[i]) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d ANDs under the newly registered key decrypt wrong", wrong, len(out))
	}
}

// TestDeleteDuringRestore: a session deleted while a restore of it is in
// flight stays deleted, for the request that started the restore and for
// every later one.
func TestDeleteDuringRestore(t *testing.T) {
	srv, store, done := startStalledRestore(t)
	sk, _ := testKeys(t, 1)
	if warm, persisted, err := srv.DeleteSession("a"); err != nil || warm || !persisted {
		t.Fatalf("DeleteSession = %v, %v, %v; want false, true, nil", warm, persisted, err)
	}
	close(store.release)
	if err := <-done; !errors.Is(err, ErrUnknownSession) {
		t.Errorf("request during the delete: %v, want ErrUnknownSession", err)
	}
	if _, err := srv.GateBatch("a", engine.NOT, encryptBools(sk, 2, []bool{true}), nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("request after the delete: %v, want ErrUnknownSession", err)
	}
	if ids := srv.Sessions(); len(ids) != 1 || ids[0] != "b" {
		t.Errorf("Sessions() = %v, want [b]", ids)
	}
}

// TestDeleteSession exercises explicit eviction across both tiers.
func TestDeleteSession(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{Store: NewMemStore()})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}
	warm, persisted, err := srv.DeleteSession("alice")
	if err != nil || !warm || !persisted {
		t.Fatalf("DeleteSession = %v, %v, %v; want true, true, nil", warm, persisted, err)
	}
	if _, err := srv.GateBatch("alice", engine.NOT, encryptBools(sk, 1, []bool{true}), nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("deleted session: %v, want ErrUnknownSession", err)
	}
	if _, _, err := srv.DeleteSession("alice"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("double delete: %v, want ErrUnknownSession", err)
	}
	// Deleting an evicted-without-store session clears the evicted mark.
	srv2 := New(Config{MaxSessions: 1})
	if err := srv2.RegisterKey("a", ek); err != nil {
		t.Fatal(err)
	}
	_, ek2 := testKeys(t, 2)
	if err := srv2.RegisterKey("b", ek2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv2.DeleteSession("a"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("delete of evicted session: %v, want ErrUnknownSession", err)
	}
	if _, err := srv2.GateBatch("a", engine.NOT, encryptBools(sk, 1, []bool{true}), nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("after delete, error = %v, want ErrUnknownSession (not evicted)", err)
	}
}

// TestSessionList covers the two-tier listing: warm MRU-first, then
// store-only rows sorted by ID, with exact wire key sizes.
func TestSessionList(t *testing.T) {
	_, ek := testKeys(t, 1)
	wantBytes, ok := wire.EvalKeySize(tfhe.ParamsTest)
	srv := New(Config{MaxSessions: 1, Store: NewMemStore()})
	if err := srv.RegisterKey("zed", ek); err != nil {
		t.Fatal(err)
	}
	_, ek2 := testKeys(t, 2)
	if err := srv.RegisterKey("amy", ek2); err != nil { // evicts zed to the store
		t.Fatal(err)
	}
	list := srv.SessionList()
	if len(list) != 2 {
		t.Fatalf("SessionList = %+v, want 2 rows", list)
	}
	if list[0].ID != "amy" || !list[0].Warm || !list[0].Persisted {
		t.Errorf("row 0 = %+v, want warm+persisted amy", list[0])
	}
	if list[1].ID != "zed" || list[1].Warm || !list[1].Persisted {
		t.Errorf("row 1 = %+v, want cold persisted zed", list[1])
	}
	for i, row := range list {
		if row.Params != tfhe.ParamsTest.Name {
			t.Errorf("row %d params = %q", i, row.Params)
		}
		if ok && row.KeyBytes != wantBytes {
			t.Errorf("row %d key bytes = %d, want %d", i, row.KeyBytes, wantBytes)
		}
	}
}

// TestDrain covers graceful-shutdown semantics: draining refuses new
// work with ErrShuttingDown, completes in-flight work, closes the store,
// and is idempotent.
func TestDrain(t *testing.T) {
	sk, ek := testKeys(t, 1)
	store := NewMemStore()
	srv := New(Config{Store: store})
	if err := srv.RegisterKey("alice", ek); err != nil {
		t.Fatal(err)
	}

	// In-flight work started before the drain must complete.
	cts := encryptBools(sk, 1, make([]bool, 64))
	type result struct {
		out []tfhe.LWECiphertext
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		out, err := srv.GateBatch("alice", engine.NOT, cts, nil)
		resCh <- result{out, err}
	}()
	time.Sleep(5 * time.Millisecond) // give the batch a chance to enter

	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Drain")
	}
	res := <-resCh
	if res.err != nil {
		t.Errorf("in-flight batch failed during drain: %v", res.err)
	} else if len(res.out) != 64 {
		t.Errorf("in-flight batch returned %d outputs, want 64", len(res.out))
	}

	// Every entry point now refuses with ErrShuttingDown.
	if err := srv.RegisterKey("bob", ek); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("RegisterKey while draining: %v", err)
	}
	if _, err := srv.GateBatch("alice", engine.NOT, cts[:1], nil); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("GateBatch while draining: %v", err)
	}
	if _, _, err := srv.DeleteSession("alice"); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("DeleteSession while draining: %v", err)
	}
	// The store was closed by the drain.
	if err := putBlob(store, "x", nil); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("store after drain: %v, want ErrStoreClosed", err)
	}
	// Idempotent.
	if err := srv.Drain(); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestOverloaded proves a saturated session queue times out into
// ErrOverloaded instead of blocking forever.
func TestOverloaded(t *testing.T) {
	_, ek := testKeys(t, 1)
	sess := newSession("x", ek, Config{}.withDefaults())
	sess.queueTimeout = time.Millisecond
	// Saturate the backpressure bound directly — deterministic, no racing
	// goroutines needed.
	for i := 0; i < cap(sess.slots); i++ {
		sess.slots <- struct{}{}
	}
	if err := sess.acquireSlot(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquireSlot on a full queue: %v, want ErrOverloaded", err)
	}
	if sess.rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", sess.rejected.Load())
	}
	// Freeing a slot unblocks the next acquire.
	<-sess.slots
	if err := sess.acquireSlot(); err != nil {
		t.Errorf("acquireSlot with room: %v", err)
	}
}

// TestErrorStatusMapping pins every service error to its HTTP status and
// machine-readable code.
func TestErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{ErrUnknownSession, http.StatusNotFound, CodeUnknownSession},
		{ErrSessionEvicted, http.StatusGone, CodeSessionEvicted},
		{ErrBatchTooLarge, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{fmt.Errorf("wrap: %w", ErrBatchTooLarge), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{ErrOverloaded, http.StatusServiceUnavailable, CodeOverloaded},
		{ErrShuttingDown, http.StatusServiceUnavailable, CodeShuttingDown},
		{fmt.Errorf("%w: disk on fire", errStoreFailure), http.StatusInternalServerError, CodeInternal},
		{ErrEmptyClientID, http.StatusBadRequest, CodeBadRequest},
		{errors.New("anything else"), http.StatusBadRequest, CodeBadRequest},
		{&http.MaxBytesError{Limit: 5}, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{&APIError{Code: CodeOverloaded, Status: 503}, http.StatusServiceUnavailable, CodeOverloaded},
	}
	for _, c := range cases {
		status, code := errorStatus(c.err)
		if status != c.status || code != c.code {
			t.Errorf("errorStatus(%v) = %d/%s, want %d/%s", c.err, status, code, c.status, c.code)
		}
	}
}

// TestHTTPErrorCodes proves every non-2xx response carries the
// machine-readable code, and the evicted/unknown split surfaces over
// HTTP.
func TestHTTPErrorCodes(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxSessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.RegisterKey("a", ek); err != nil {
		t.Fatal(err)
	}
	_, ek2 := testKeys(t, 2)
	if err := srv.RegisterKey("b", ek2); err != nil { // evict "a"
		t.Fatal(err)
	}

	gate := func(id string) (int, ErrorResponse) {
		body := fmt.Sprintf(`{"client_id":%q,"kind":"gate","op":"NAND","a":[],"b":[]}`, id)
		resp, err := http.Post(ts.URL+"/v2/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}

	// Empty batches short-circuit before session lookup only after the
	// session resolves; use a one-ciphertext batch for the evicted case.
	ct := encodeCiphertexts(encryptBools(sk, 1, []bool{true}))
	evictedBody, _ := json.Marshal(EvalRequest{ClientID: "a", Kind: EvalKindGate, Op: "NOT", A: ct})
	resp, err := http.Post(ts.URL+"/v2/eval", "application/json", bytes.NewReader(evictedBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone || er.Code != CodeSessionEvicted {
		t.Errorf("evicted: %d/%s, want 410/%s", resp.StatusCode, er.Code, CodeSessionEvicted)
	}
	if er.Error == "" {
		t.Error("evicted response lost its human-readable error")
	}

	if status, er := gate("ghost"); status != http.StatusNotFound || er.Code != CodeUnknownSession {
		t.Errorf("unknown: %d/%s, want 404/%s", status, er.Code, CodeUnknownSession)
	}
	// Malformed requests carry bad_request.
	resp2, err := http.Post(ts.URL+"/v2/eval", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var er2 ErrorResponse
	_ = json.NewDecoder(resp2.Body).Decode(&er2)
	if resp2.StatusCode != http.StatusBadRequest || er2.Code != CodeBadRequest {
		t.Errorf("bad JSON: %d/%s, want 400/%s", resp2.StatusCode, er2.Code, CodeBadRequest)
	}
}

// TestHTTPLifecycle drives healthz, the session listing, and delete over
// real HTTP through the typed client.
func TestHTTPLifecycle(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{Store: NewMemStore()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, "alice")

	h, err := cl.Healthz()
	if err != nil || h.Status != "ok" || h.Draining {
		t.Fatalf("Healthz = %+v, %v; want ok", h, err)
	}
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}
	infos, err := cl.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "alice" || !infos[0].Warm || !infos[0].Persisted || infos[0].KeyBytes <= 0 {
		t.Errorf("Sessions = %+v, want one warm persisted alice with a key size", infos)
	}

	del, err := cl.DeleteSession("alice")
	if err != nil || !del.Warm || !del.Persisted {
		t.Fatalf("DeleteSession = %+v, %v", del, err)
	}
	if _, err := cl.GateBatch(engine.NOT, encryptBools(sk, 1, []bool{true}), nil); !isAPICode(err, CodeUnknownSession) {
		t.Errorf("gate after delete: %v, want APIError unknown_session", err)
	}
	if _, err := cl.DeleteSession("alice"); !isAPICode(err, CodeUnknownSession) {
		t.Errorf("double delete: %v, want APIError unknown_session", err)
	}

	// Drain flips healthz to 503 shutting_down.
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Healthz()
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable || api.Code != CodeShuttingDown {
		t.Errorf("Healthz while draining: %v, want 503 shutting_down", err)
	}
	if !api.Temporary() {
		t.Error("shutting_down not Temporary()")
	}
}

// TestClientRetry proves temporary refusals are retried with backoff and
// permanent errors are not.
func TestClientRetry(t *testing.T) {
	var hits int
	var mu sync.Mutex
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		n := hits
		mu.Unlock()
		if n <= 2 {
			writeError(w, ErrOverloaded)
			return
		}
		writeJSON(w, http.StatusOK, Stats{MaxSessions: 7})
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	cl := Dial(ts.URL, "x")
	cl.SetRetry(3, time.Millisecond)
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats with retries: %v", err)
	}
	if st.MaxSessions != 7 {
		t.Errorf("stats = %+v", st)
	}
	mu.Lock()
	if hits != 3 {
		t.Errorf("hits = %d, want 3 (two 503s + success)", hits)
	}
	mu.Unlock()

	// Exhausted retries surface the typed temporary error.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, ErrShuttingDown)
	}))
	defer always.Close()
	cl2 := Dial(always.URL, "x")
	cl2.SetRetry(2, time.Millisecond)
	_, err = cl2.Stats()
	var api *APIError
	if !errors.As(err, &api) || !api.Temporary() || api.Code != CodeShuttingDown {
		t.Errorf("exhausted retries: %v, want temporary shutting_down APIError", err)
	}

	// Permanent errors do not retry.
	var permHits int
	perm := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		permHits++
		writeError(w, ErrUnknownSession)
	}))
	defer perm.Close()
	cl3 := Dial(perm.URL, "x")
	cl3.SetRetry(3, time.Millisecond)
	if _, err := cl3.Stats(); !isAPICode(err, CodeUnknownSession) {
		t.Errorf("permanent error: %v", err)
	}
	if permHits != 1 {
		t.Errorf("permanent error hit the server %d times, want 1", permHits)
	}
}

// isAPICode reports whether err is an *APIError with the given code.
func isAPICode(err error, code string) bool {
	var api *APIError
	return errors.As(err, &api) && api.Code == code
}
