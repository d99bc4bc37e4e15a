package router

import (
	"encoding/json"
	"errors"
	"fmt"
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
	"repro/internal/server"
	"repro/internal/tfhe"
)

// testKeys caches one deterministic test-set key pair for the package.
var (
	keysOnce sync.Once
	cachedSK tfhe.SecretKeys
	cachedEK tfhe.EvaluationKeys
)

func testKeys(t *testing.T) (tfhe.SecretKeys, tfhe.EvaluationKeys) {
	t.Helper()
	keysOnce.Do(func() {
		cachedSK, cachedEK = tfhe.GenerateKeys(rand.New(rand.NewSource(1)), tfhe.ParamsTest)
	})
	return cachedSK, cachedEK
}

// newBackend boots one in-process gate service node.
func newBackend(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// fastConfig returns a Config tuned for tests: tight probes, instant
// ejection and re-admission, quick retries.
func fastConfig(backends ...string) Config {
	return Config{
		Backends:         backends,
		ProbeInterval:    20 * time.Millisecond,
		failThreshold:    1,
		recoverThreshold: 1,
		MaxRetries:       5,
		retryBase:        30 * time.Millisecond,
	}
}

// newRouter builds a Router plus its HTTP front for a test.
func newRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

// encryptBools encrypts a bit vector under sk.
func encryptBools(sk tfhe.SecretKeys, seed int64, bits []bool) []tfhe.LWECiphertext {
	rng := rand.New(rand.NewSource(seed))
	cts := make([]tfhe.LWECiphertext, len(bits))
	for i, b := range bits {
		cts[i] = sk.EncryptBool(rng, b)
	}
	return cts
}

// sessionIDs returns the IDs living on a node.
func sessionIDs(srv *server.Server) map[string]bool {
	ids := make(map[string]bool)
	for _, s := range srv.SessionList() {
		ids[s.ID] = true
	}
	return ids
}

// TestRoutedRegisterAndEval is the routed happy path: sessions register
// through the router, spread across the pool by the rendezvous hash, and
// every envelope kind evaluates through the router to correct plaintexts.
func TestRoutedRegisterAndEval(t *testing.T) {
	sk, ek := testKeys(t)
	srvA, tsA := newBackend(t)
	srvB, tsB := newBackend(t)
	r, rts := newRouter(t, fastConfig(tsA.URL, tsB.URL))

	// Register enough clients that both shards get at least one, pinning
	// where the rendezvous hash says they belong.
	var clients []*server.Client
	for i := 0; i < 8; i++ {
		cl := server.Dial(rts.URL, fmt.Sprintf("client-%d", i))
		if err := cl.RegisterKey(ek); err != nil {
			t.Fatalf("register client-%d: %v", i, err)
		}
		clients = append(clients, cl)
	}
	idsA, idsB := sessionIDs(srvA), sessionIDs(srvB)
	if len(idsA) == 0 || len(idsB) == 0 {
		t.Fatalf("lopsided placement: %d vs %d sessions", len(idsA), len(idsB))
	}
	if len(idsA)+len(idsB) != len(clients) {
		t.Fatalf("placed %d+%d sessions for %d clients", len(idsA), len(idsB), len(clients))
	}
	for i, cl := range clients {
		home := shardOf(r, cl.ClientID())
		onA := idsA[cl.ClientID()]
		if (home == tsA.URL) != onA {
			t.Errorf("client-%d: the shard is %s but session on A=%v", i, home, onA)
		}
	}

	bits := []bool{true, false, true, true}
	shift := []bool{false, true, true, false}
	for _, cl := range clients[:2] {
		out, err := cl.GateBatch(engine.NAND, encryptBools(sk, 10, bits), encryptBools(sk, 11, shift))
		if err != nil {
			t.Fatalf("%s gate batch: %v", cl.ClientID(), err)
		}
		for i := range bits {
			if got := sk.DecryptBool(out[i]); got != !(bits[i] && shift[i]) {
				t.Errorf("%s item %d = %v", cl.ClientID(), i, got)
			}
		}
	}

	// The merged observability surface sees the whole cluster.
	st, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != len(clients) {
		t.Errorf("merged stats report %d sessions, want %d", len(st.Sessions), len(clients))
	}
	sess, err := clients[0].Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sess) != len(clients) {
		t.Errorf("merged sessions report %d, want %d", len(sess), len(clients))
	}

	// Typed errors pass through the router verbatim.
	ghost := server.Dial(rts.URL, "ghost")
	_, err = ghost.GateBatch(engine.NOT, encryptBools(sk, 12, bits), nil)
	var api *server.APIError
	if !errors.As(err, &api) || api.Code != server.CodeUnknownSession {
		t.Errorf("unrouted session error = %v, want unknown_session", err)
	}

	// Deleting through the router unpins and evicts on the right shard.
	victim := clients[0].ClientID()
	if _, err := clients[0].DeleteSession(victim); err != nil {
		t.Fatal(err)
	}
	if sessionIDs(srvA)[victim] || sessionIDs(srvB)[victim] {
		t.Errorf("%s still present after routed delete", victim)
	}
}

// TestBackendDownAtRegister covers the first failure mode: one pool
// member is unreachable from the start. Registrations whose rendezvous
// choice is the dead node must retry onto the live one instead of
// failing.
func TestBackendDownAtRegister(t *testing.T) {
	_, ek := testKeys(t)
	srvLive, tsLive := newBackend(t)

	// A listener that was closed immediately: connection refused.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + lis.Addr().String()
	lis.Close()

	r, rts := newRouter(t, fastConfig(tsLive.URL, deadURL))

	// Find an ID whose rendezvous home is the dead node, so the first
	// forward attempt really does hit it.
	id := ""
	for i := 0; i < 256; i++ {
		candidate := fmt.Sprintf("doomed-%d", i)
		if shardOf(r, candidate) == deadURL {
			id = candidate
			break
		}
	}
	if id == "" {
		t.Fatal("no candidate ID hashes to the dead backend")
	}

	cl := server.Dial(rts.URL, id)
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatalf("register with one backend down: %v", err)
	}
	if !sessionIDs(srvLive)[id] {
		t.Error("session did not land on the live backend")
	}
}

// TestBackendDiesMidBatch covers the second failure mode: the client's
// home node dies between register and batch, then comes back on the
// same address. The routed retry must ride out the outage and land on
// the same shard — the eval key lives nowhere else.
func TestBackendDiesMidBatch(t *testing.T) {
	sk, ek := testKeys(t)
	srvB, tsB := newBackend(t)

	// Node A runs on a listener we control, so it can die and return on
	// the same address with its warm sessions intact.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srvA := server.New(server.Config{})
	hsA := &http.Server{Handler: srvA.Handler()}
	go hsA.Serve(lis)
	t.Cleanup(func() { hsA.Close() })

	_, rts := newRouter(t, fastConfig("http://"+addr, tsB.URL))

	// Pin a client to node A.
	id := ""
	var cl *server.Client
	for i := 0; i < 256 && id == ""; i++ {
		candidate := fmt.Sprintf("mover-%d", i)
		c := server.Dial(rts.URL, candidate)
		if err := c.RegisterKey(ek); err != nil {
			t.Fatalf("register %s: %v", candidate, err)
		}
		if sessionIDs(srvA)[candidate] {
			id, cl = candidate, c
		}
	}
	if id == "" {
		t.Fatal("no client landed on node A")
	}

	// Kill node A, and bring it back on the same address mid-retry.
	if err := hsA.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		var lis2 net.Listener
		var err error
		for i := 0; i < 50; i++ {
			if lis2, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			restarted <- err
			return
		}
		hs2 := &http.Server{Handler: srvA.Handler()}
		t.Cleanup(func() { hs2.Close() })
		go hs2.Serve(lis2)
		restarted <- nil
	}()

	bits := []bool{true, false, true}
	out, err := cl.GateBatch(engine.NOT, encryptBools(sk, 20, bits), nil)
	if err != nil {
		t.Fatalf("gate batch across backend restart: %v", err)
	}
	if err := <-restarted; err != nil {
		t.Fatalf("rebind node A: %v", err)
	}
	for i, b := range bits {
		if got := sk.DecryptBool(out[i]); got != !b {
			t.Errorf("item %d = %v, want %v", i, got, !b)
		}
	}
	// The session never moved shards: still on A, never created on B.
	if !sessionIDs(srvA)[id] {
		t.Error("session missing from node A after restart")
	}
	if sessionIDs(srvB)[id] {
		t.Error("retry leaked the session onto node B")
	}
}

// TestDrainOneBackend covers the third failure mode: one node drains
// while the cluster keeps serving. Probes must eject the draining node,
// traffic pinned to the healthy node must be untouched, and clients
// pinned to the draining node must see the typed shutting_down code.
func TestDrainOneBackend(t *testing.T) {
	sk, ek := testKeys(t)
	srvA, tsA := newBackend(t)
	srvB, tsB := newBackend(t)
	r, rts := newRouter(t, fastConfig(tsA.URL, tsB.URL))

	var onA, onB *server.Client
	for i := 0; i < 256 && (onA == nil || onB == nil); i++ {
		id := fmt.Sprintf("drain-%d", i)
		c := server.Dial(rts.URL, id)
		c.SetRetry(0, time.Millisecond) // typed errors must surface, not retry
		if err := c.RegisterKey(ek); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		if onA == nil && sessionIDs(srvA)[id] {
			onA = c
		}
		if onB == nil && sessionIDs(srvB)[id] {
			onB = c
		}
	}
	if onA == nil || onB == nil {
		t.Fatal("could not pin a client to each node")
	}

	srvA.Drain()
	// Wait for the probe loop to eject A.
	deadline := time.Now().Add(2 * time.Second)
	for r.pool.healthyCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("probes never ejected the draining backend")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The healthy shard serves on.
	bits := []bool{true, false}
	out, err := onB.GateBatch(engine.NOT, encryptBools(sk, 30, bits), nil)
	if err != nil {
		t.Fatalf("batch on healthy shard during drain: %v", err)
	}
	for i, b := range bits {
		if got := sk.DecryptBool(out[i]); got != !b {
			t.Errorf("item %d = %v", i, got)
		}
	}

	// The drained shard's pinned client gets the typed refusal.
	_, err = onA.GateBatch(engine.NOT, encryptBools(sk, 31, bits), nil)
	var api *server.APIError
	if !errors.As(err, &api) || api.Code != server.CodeShuttingDown {
		t.Errorf("drained shard error = %v, want shutting_down", err)
	}

	// New sessions keep landing — on the healthy node, wherever their
	// rendezvous home was.
	fresh := server.Dial(rts.URL, "drain-fresh")
	if err := fresh.RegisterKey(ek); err != nil {
		t.Fatalf("register during drain: %v", err)
	}
	if !sessionIDs(srvB)["drain-fresh"] {
		t.Error("fresh session did not land on the healthy node")
	}
}

// TestRendezvousStability covers the fourth failure mode: pool
// membership changes. Removing one backend must remap only the IDs that
// lived on it — every other assignment is untouched, which is the whole
// point of rendezvous hashing.
func TestRendezvousStability(t *testing.T) {
	urls := []string{"http://node-a", "http://node-b", "http://node-c"}
	full := newPool(urls)
	reduced := newPool([]string{urls[0], urls[2]}) // node-b removed

	moved, stayed := 0, 0
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("session-%04d", i)
		before := rendezvous(id, full.backends).url
		after := rendezvous(id, reduced.backends).url
		if before == urls[1] {
			moved++
			continue // displaced sessions may land anywhere
		}
		stayed++
		if after != before {
			t.Fatalf("%s moved %s → %s though its node survived", id, before, after)
		}
	}
	// Sanity: the hash spreads sessions over all three nodes.
	if moved == 0 || stayed == 0 {
		t.Fatalf("degenerate distribution: %d moved, %d stayed", moved, stayed)
	}
	if moved < 2000/6 || moved > 2000/2 {
		t.Errorf("node-b held %d of 2000 sessions — rendezvous badly unbalanced", moved)
	}
}

// TestAdmissionControl pins the router-level inflight cap: when the
// cluster-wide slot pool is exhausted past the admit timeout, the
// router refuses with the typed overloaded code instead of queueing
// without bound.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/healthz" {
			writeOK(w, server.HealthResponse{Status: "ok"})
			return
		}
		<-release
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"out":[],"k":1}`))
	}))
	defer slow.Close()
	defer close(release)

	cfg := fastConfig(slow.URL)
	cfg.MaxInflight = 1
	cfg.admitTimeout = 50 * time.Millisecond
	cfg.MaxRetries = 1
	r, rts := newRouter(t, cfg)

	// First request occupies the only slot: it routes to the slow
	// backend and parks there until release closes at test end.
	go http.Post(rts.URL+"/v2/eval", "application/json",
		strings.NewReader(`{"client_id":"occupier","kind":"lut","space":4,"table":[0,1,2,3]}`))
	deadline := time.Now().Add(2 * time.Second)
	for len(r.admit) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("occupier never took the inflight slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cl := server.Dial(rts.URL, "crowded")
	cl.SetRetry(0, time.Millisecond)
	_, err := cl.LUTBatch(nil, 4, []int{0, 1, 2, 3})
	var api *server.APIError
	if !errors.As(err, &api) || api.Code != server.CodeOverloaded {
		t.Errorf("cap-exceeded error = %v, want overloaded", err)
	}
}

// TestRouterDrain pins the router's own shutdown signaling: after Drain
// every evaluation is refused shutting_down and healthz flips to 503,
// while the cluster introspection endpoint keeps answering.
func TestRouterDrain(t *testing.T) {
	_, ts := newBackend(t)
	r, rts := newRouter(t, fastConfig(ts.URL))
	r.Drain()

	cl := server.Dial(rts.URL, "late")
	cl.SetRetry(0, time.Millisecond)
	_, err := cl.LUTBatch(nil, 4, []int{0, 1, 2, 3})
	var api *server.APIError
	if !errors.As(err, &api) || api.Code != server.CodeShuttingDown {
		t.Errorf("drained router error = %v, want shutting_down", err)
	}
	hz, err := http.Get(rts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.HealthResponse
	err = json.NewDecoder(hz.Body).Decode(&h)
	hz.Body.Close()
	if err != nil || hz.StatusCode != http.StatusServiceUnavailable || !h.Draining {
		t.Errorf("drained router healthz = %d %+v (%v), want 503 draining", hz.StatusCode, h, err)
	}

	resp, err := http.Get(rts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cluster introspection during drain: HTTP %d", resp.StatusCode)
	}
}

// TestRouterConfigValidation pins constructor errors: an empty pool and
// duplicate members are configuration bugs, not runtime surprises.
func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"http://x", "http://x/"}}); err == nil {
		t.Error("duplicate backends accepted")
	}
}

// stub503 boots a backend that answers every request with a 503 carrying
// the given typed code, counting the requests it receives. No probe runs
// during these tests (hour-long ProbeInterval), so health transitions
// come from the forward path alone.
func stub503(t *testing.T, code string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "busy", Code: code})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// postEval sends one minimal eval envelope through the router and
// returns the response status and decoded error frame.
func postEval(t *testing.T, url string) (int, server.ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v2/eval", "application/json", strings.NewReader(`{"client_id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode refusal: %v", err)
	}
	return resp.StatusCode, er
}

// TestOverloaded503NotEjected pins the health semantics of a busy node:
// a backend answering 503 overloaded is alive and doing work, so the
// router must retry against it and relay the refusal — but never count
// it toward failThreshold. Ejecting nodes exactly when the cluster is
// busiest would cascade their load onto the survivors.
func TestOverloaded503NotEjected(t *testing.T) {
	var hits atomic.Int64
	ts := stub503(t, server.CodeOverloaded, &hits)
	r, rts := newRouter(t, Config{
		Backends:      []string{ts.URL},
		ProbeInterval: time.Hour, // no probe interference
		failThreshold: 1,
		MaxRetries:    2,
		retryBase:     time.Millisecond,
	})

	status, er := postEval(t, rts.URL)
	if status != http.StatusServiceUnavailable || er.Code != server.CodeOverloaded {
		t.Fatalf("refusal = HTTP %d code %q, want 503 %q", status, er.Code, server.CodeOverloaded)
	}
	if got := hits.Load(); got != 3 { // initial attempt + MaxRetries
		t.Errorf("backend saw %d attempts, want 3", got)
	}
	if !r.pool.backends[0].isHealthy() {
		t.Error("overloaded-but-healthy backend was ejected from the pool")
	}
}

// TestShuttingDown503Ejects pins the complementary case: a node that
// announces shutting_down is leaving, so its refusals do count toward
// failThreshold and probes gate its re-admission.
func TestShuttingDown503Ejects(t *testing.T) {
	var hits atomic.Int64
	ts := stub503(t, server.CodeShuttingDown, &hits)
	r, rts := newRouter(t, Config{
		Backends:      []string{ts.URL},
		ProbeInterval: time.Hour,
		failThreshold: 1,
		MaxRetries:    1,
		retryBase:     time.Millisecond,
	})

	// The first shutting_down refusal ejects the node (failThreshold 1);
	// the unpinned retry then finds no healthy backend, so the router
	// answers with its own 503.
	status, _ := postEval(t, rts.URL)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("refusal = HTTP %d, want 503", status)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("backend saw %d attempts, want 1 (ejected after the first)", got)
	}
	if r.pool.backends[0].isHealthy() {
		t.Error("draining backend still admitted after failThreshold refusals")
	}
}

// TestDeleteSessionEscapesClientID pins the delete path for IDs with URL
// metacharacters, dialled direct and through the router: exactly the
// named session disappears. Unescaped, "a?b" deleted session "a" and
// "a/b", "a#b" could never be deleted over HTTP.
func TestDeleteSessionEscapesClientID(t *testing.T) {
	_, ek := testKeys(t)
	awkward := []string{"a?b", "a/b", "a b", "a#b", "a%2Fb"}
	for _, mode := range []string{"direct", "routed"} {
		t.Run(mode, func(t *testing.T) {
			srv, ts := newBackend(t)
			base := ts.URL
			if mode == "routed" {
				_, rts := newRouter(t, fastConfig(ts.URL))
				base = rts.URL
			}
			for _, id := range append([]string{"a"}, awkward...) {
				if err := srv.RegisterKey(id, ek); err != nil {
					t.Fatal(err)
				}
			}
			cl := server.Dial(base, "admin")
			for _, id := range awkward {
				want := sessionIDs(srv)
				delete(want, id)
				resp, err := cl.DeleteSession(id)
				if err != nil || !resp.Warm {
					t.Errorf("DeleteSession(%q) = %+v, %v; want warm, nil", id, resp, err)
				}
				if got := sessionIDs(srv); !reflect.DeepEqual(got, want) {
					t.Fatalf("after DeleteSession(%q): sessions %v, want %v", id, got, want)
				}
			}
		})
	}
}

// TestRouteTable pins the HTTP surface of a node and of the router:
// /v2/eval is the only evaluation entry, the retired /v1/*-batch and JSON
// key-upload paths answer the mux's 404, and every surviving route is
// served. A route
// counts as served when the reply is one of the API's JSON frames — the
// mux's own 404 and 405 are text/plain.
func TestRouteTable(t *testing.T) {
	_, ts := newBackend(t)
	_, rts := newRouter(t, fastConfig(ts.URL))

	type route struct{ method, path string }
	surviving := []route{
		{"POST", "/v2/eval"},
		{"POST", "/v1/sessions/ghost"},
		{"GET", "/v1/stats"},
		{"GET", "/v1/healthz"},
		{"GET", "/v1/sessions"},
		{"DELETE", "/v1/sessions/ghost"},
	}
	// Retired paths are spelled in pieces so a grep for them stays empty.
	retired := []route{{"POST", "/v1/register" + "-key"}}
	for _, kind := range []string{"gate", "lut", "multilut", "circuit"} {
		retired = append(retired, route{"POST", "/v1/" + kind + "-batch"})
	}
	probe := func(base string, rt route) (status int, served bool) {
		t.Helper()
		req, err := http.NewRequest(rt.method, base+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type") == "application/json"
	}
	for _, front := range []struct {
		name, base string
		extra      []route
		absent     []route
	}{
		{"server", ts.URL, nil, []route{{"GET", "/v1/cluster"}}},
		{"router", rts.URL, []route{{"GET", "/v1/cluster"}}, nil},
	} {
		for _, rt := range append(surviving, front.extra...) {
			if status, served := probe(front.base, rt); !served {
				t.Errorf("%s: %s %s is not served (HTTP %d)", front.name, rt.method, rt.path, status)
			}
		}
		for _, rt := range append(retired, front.absent...) {
			if status, served := probe(front.base, rt); served || status != http.StatusNotFound {
				t.Errorf("%s: %s %s answers HTTP %d (served=%v), want the mux's 404", front.name, rt.method, rt.path, status, served)
			}
		}
	}
}

// TestServeStopsProbesOnEveryExit pins what Serve owns: however it comes
// to return — asked to drain, or with the listener failing underneath a
// router nobody asked to drain — the probe loop has stopped, and no probe
// reaches a backend afterwards.
func TestServeStopsProbesOnEveryExit(t *testing.T) {
	for _, exit := range []string{"drained", "listener closed"} {
		t.Run(exit, func(t *testing.T) {
			var probes atomic.Int64
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				probes.Add(1)
				writeOK(w, server.HealthResponse{Status: "ok"})
			}))
			defer backend.Close()
			cfg := fastConfig(backend.URL)
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			drain := make(chan struct{})
			done := make(chan error, 1)
			go func() { done <- r.Serve(l, drain) }()
			eventually(t, "the probe loop reaches the backend", func() bool { return probes.Load() > 0 })

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
			if !r.Draining() {
				t.Error("router still admits work after Serve returned")
			}
			// A round that was under way when Serve returned may still land.
			time.Sleep(3 * cfg.ProbeInterval)
			settled := probes.Load()
			time.Sleep(10 * cfg.ProbeInterval)
			if n := probes.Load(); n != settled {
				t.Errorf("%d probes reached the backend after Serve returned", n-settled)
			}
		})
	}
}

// shardOf returns the backend URL the rendezvous hash assigns clientID
// to, ignoring health and pins: the home node a fresh registration would
// pick on a fully healthy pool.
func shardOf(r *Router, clientID string) string {
	return rendezvous(clientID, r.pool.backends).url
}
