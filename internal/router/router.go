package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Config parameterizes a Router. The zero value of every field except
// Backends picks a sensible default.
type Config struct {
	// Backends are the strixserv base URLs to shard across, e.g.
	// "http://10.0.0.7:8475". At least one is required.
	Backends []string

	// ProbeInterval is the period between /v1/healthz probe rounds
	// (default 1s).
	ProbeInterval time.Duration

	// MaxInflight caps concurrently forwarded eval/register requests
	// across the whole cluster (default 256). Observability endpoints
	// are exempt.
	MaxInflight int

	// MaxRetries re-forwards an idempotent request that failed
	// temporarily — connection error or 503 — up to this many times
	// (default 3). Batch evaluation is idempotent, so replays are safe.
	MaxRetries int

	// The rest are constants to every caller outside this package; its
	// tests shorten them so ejection, re-admission and backoff take
	// milliseconds. Zero means the constant.

	// failThreshold ejects a backend after this many consecutive failed
	// probes or forwards (3).
	failThreshold int
	// recoverThreshold re-admits an ejected backend after this many
	// consecutive successful probes (2).
	recoverThreshold int
	// admitTimeout is how long a request waits for an inflight slot
	// before the router refuses it as overloaded (2s).
	admitTimeout time.Duration
	// retryBase seeds the jittered exponential backoff between forward
	// attempts (50ms).
	retryBase time.Duration
}

// probeTimeout bounds one probe request.
const probeTimeout = 2 * time.Second

func (cfg *Config) applyDefaults() {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.failThreshold == 0 {
		cfg.failThreshold = 3
	}
	if cfg.recoverThreshold == 0 {
		cfg.recoverThreshold = 2
	}
	if cfg.admitTimeout == 0 {
		cfg.admitTimeout = 2 * time.Second
	}
	if cfg.retryBase == 0 {
		cfg.retryBase = 50 * time.Millisecond
	}
}

// Router fans one gate-service API out over a pool of strixserv
// backends. Safe for concurrent use; create with New and release the
// probe goroutine with Close.
type Router struct {
	cfg   Config
	pool  *pool
	hc    *http.Client // forwards: no timeout, batches run long
	probe *http.Client // probes: short timeout

	admit chan struct{}

	mu       sync.Mutex
	draining bool

	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a Router over cfg.Backends and starts its health-probe
// loop. Backends start admitted; the first probe round corrects that
// within ProbeInterval.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	cfg.applyDefaults()
	urls := make([]string, len(cfg.Backends))
	seen := make(map[string]bool)
	for i, u := range cfg.Backends {
		urls[i] = strings.TrimRight(u, "/")
		if seen[urls[i]] {
			return nil, fmt.Errorf("router: duplicate backend %q", urls[i])
		}
		seen[urls[i]] = true
	}
	r := &Router{
		cfg:   cfg,
		pool:  newPool(urls),
		hc:    &http.Client{},
		probe: &http.Client{Timeout: probeTimeout},
		admit: make(chan struct{}, cfg.MaxInflight),
		stop:  make(chan struct{}),
	}
	go r.pool.probeLoop(r.probe, cfg.ProbeInterval, cfg.failThreshold, cfg.recoverThreshold, r.stop)
	return r, nil
}

// Close stops the health-probe loop. In-flight forwards finish.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// Drain marks the router as shutting down: every new evaluation or
// registration is refused with code shutting_down. Observability
// endpoints keep answering so orchestrators can watch the drain.
func (r *Router) Drain() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
}

// Serve runs the router's HTTP API on the listener, under the connection
// timeouts of server.ServeHandler, until drain is closed, then shuts down
// gracefully: new work is refused with the typed shutting_down code while
// every in-flight forward runs to completion on its backend. It returns
// nil after a clean drain, or the listener's error if serving failed
// first; either way the probe loop is stopped when it returns. A nil
// drain serves until the listener fails.
func (r *Router) Serve(l net.Listener, drain <-chan struct{}) error {
	defer r.Close()
	return server.ServeHandler(l, r.Handler(), drain, func() error {
		r.Drain()
		return nil
	})
}

// Draining reports whether Drain has been called.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// ShardOf returns the backend URL the rendezvous hash assigns clientID
// to, ignoring health and pins — the home node a fresh registration
// would pick on a fully healthy pool. Deterministic in (clientID,
// configured backend set).
func (r *Router) ShardOf(clientID string) string {
	return rendezvous(clientID, r.pool.backends).url
}

// BackendStatus describes one pool member in a ClusterResponse.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Pins    int    `json:"pins"` // sessions pinned to this node
}

// ClusterResponse frames GET /v1/cluster: the router's own view of the
// pool.
type ClusterResponse struct {
	Backends []BackendStatus `json:"backends"`
	Draining bool            `json:"draining"`
}

// Handler returns the router's HTTP API — the same surface as a single
// strixserv node, plus GET /v1/cluster for pool introspection:
//
//	POST   /v2/eval                  forwarded to the client's shard
//	POST   /v1/sessions/{client_id}  key upload, piped to the shard; pins the session
//	GET    /v1/stats                 merged across healthy backends
//	GET    /v1/sessions              merged across healthy backends
//	GET    /v1/healthz               router + pool health
//	GET    /v1/cluster               ClusterResponse
//	DELETE /v1/sessions/{client_id}  forwarded to the shard; unpins
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/eval", r.forwardByBody)
	mux.HandleFunc("POST /v1/sessions/{client_id}", r.handleRegisterKey)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/sessions", r.handleSessions)
	mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.HandleFunc("DELETE /v1/sessions/{client_id}", r.handleDeleteSession)
	return mux
}

// writeRouterError emits the server package's error frame, so routed
// clients decode router-origin failures exactly like node-origin ones.
func writeRouterError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(server.ErrorResponse{Error: msg, Code: code})
}

// admitOne takes one cluster-wide inflight slot, refusing with
// shutting_down when draining and overloaded when the cap stays full
// past admitTimeout. The release func must be called exactly once.
func (r *Router) admitOne(w http.ResponseWriter) (release func(), ok bool) {
	if r.Draining() {
		writeRouterError(w, http.StatusServiceUnavailable, server.CodeShuttingDown, "router is draining")
		return nil, false
	}
	select {
	case r.admit <- struct{}{}:
	default:
		t := time.NewTimer(r.cfg.admitTimeout)
		defer t.Stop()
		select {
		case r.admit <- struct{}{}:
		case <-t.C:
			writeRouterError(w, http.StatusServiceUnavailable, server.CodeOverloaded, "router inflight cap reached")
			return nil, false
		}
	}
	return func() { <-r.admit }, true
}

// clientIDOf extracts the routing key from an evaluation envelope, which
// carries client_id at the top level.
func clientIDOf(body []byte) string {
	var frame struct {
		ClientID string `json:"client_id"`
	}
	if err := json.Unmarshal(body, &frame); err != nil {
		return ""
	}
	return frame.ClientID
}

// forwardByBody routes one /v2/eval envelope by the client_id inside its
// JSON body: admission, shard pick, bounded-retry forward, verbatim
// response passthrough. The body is buffered to find the ID, which also
// makes it replayable on any attempt.
func (r *Router) forwardByBody(w http.ResponseWriter, req *http.Request) {
	release, ok := r.admitOne(w)
	if !ok {
		return
	}
	defer release()

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, server.MaxBatchBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeRouterError(w, http.StatusRequestEntityTooLarge, server.CodeTooLarge, "request body too large")
		} else {
			writeRouterError(w, http.StatusBadRequest, server.CodeBadRequest,
				fmt.Sprintf("router: reading request body: %v", err))
		}
		return
	}
	id := clientIDOf(body)
	if id == "" {
		writeRouterError(w, http.StatusBadRequest, server.CodeBadRequest, "router: missing client_id")
		return
	}
	r.forward(w, id, outbound{
		path:   "/v2/eval",
		header: http.Header{"Content-Type": {"application/json"}},
		size:   int64(len(body)),
		body:   func() io.Reader { return bytes.NewReader(body) },
	})
}

// handleRegisterKey routes one key upload by the client ID on its request
// line and pipes the body to the shard as the backend's connection takes
// it: nothing of the key is held here. The declared size travels on, so
// the backend — the one judge of an upload's size — can refuse it ahead of
// the body, and Expect: 100-continue keeps the body unread until a backend
// has admitted the request, which is what lets forward try another one.
func (r *Router) handleRegisterKey(w http.ResponseWriter, req *http.Request) {
	release, ok := r.admitOne(w)
	if !ok {
		return
	}
	defer release()

	id := req.PathValue("client_id")
	in := &inboundBody{r: req.Body}
	r.forward(drainFirst{w, in}, id, outbound{
		path:   server.SessionPath(id),
		header: http.Header{"Content-Type": req.Header["Content-Type"], "Expect": {"100-continue"}},
		size:   req.ContentLength,
		body: func() io.Reader {
			if in.read.Load() {
				return nil
			}
			return in
		},
		pin: true,
	})
}

// inboundBody is a request body being piped to a backend. It records
// whether the transport has asked it for a byte yet — until then the
// request can still go to another backend — and marks its own failures, so
// a client that hung up is not taken for a backend that did.
type inboundBody struct {
	r    io.Reader
	read atomic.Bool
}

// inboundError is a failed read of the inbound body.
type inboundError struct{ err error }

func (e *inboundError) Error() string { return e.err.Error() }

// Read implements io.Reader.
func (b *inboundBody) Read(p []byte) (int, error) {
	b.read.Store(true)
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		err = &inboundError{err}
	}
	return n, err
}

// Close implements io.Closer as a no-op: the transport closes what it
// sends, and the inbound body belongs to the HTTP server, not to one
// forward attempt.
func (b *inboundBody) Close() error { return nil }

// drainFirst answers an upload only once the inbound body is used up. A
// backend answers after it has taken the whole key, so there is then
// nothing left; but when a backend dies partway the client is still
// sending, and a reply written under it would reach it as a connection
// reset instead of the retryable 503 it is.
type drainFirst struct {
	http.ResponseWriter
	in *inboundBody
}

// WriteHeader implements http.ResponseWriter.
func (d drainFirst) WriteHeader(status int) {
	if d.in.read.Load() {
		_, _ = io.Copy(io.Discard, d.in.r)
	}
	d.ResponseWriter.WriteHeader(status)
}

// outbound is what forward sends to a backend.
type outbound struct {
	path   string
	header http.Header
	size   int64
	// body returns the body for one more attempt, from its first byte, or
	// nil when it cannot be sent again.
	body func() io.Reader
	pin  bool // a 200 pins the client to the backend that gave it
}

// post sends one attempt to b.
func (r *Router) post(b *backend, out outbound, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+out.path, body)
	if err != nil {
		return nil, err
	}
	req.Header = out.header
	req.ContentLength = out.size // declared even for a piped body: never chunked
	return r.hc.Do(req)
}

// forward sends out to id's shard, retrying temporary failures with
// jittered backoff for as long as the body can be sent again. A pinned
// client always re-targets its home node — its eval key lives nowhere
// else, so the retry rides out the node's ejection and lands once probes
// re-admit it. Unpinned requests re-pick among the remaining healthy
// backends each attempt. A piped body that a failed attempt has started
// to consume ends the retries here: the 503 goes back and the client's own
// loop re-sends.
func (r *Router) forward(w http.ResponseWriter, id string, out outbound) {
	tried := make(map[*backend]bool)
	body := out.body()
	for attempt := 0; ; attempt++ {
		b := r.pool.pick(id, tried)
		if b == nil {
			writeRouterError(w, http.StatusServiceUnavailable, server.CodeOverloaded, "router: no healthy backend")
			return
		}
		tried[b] = true
		resp, err := r.post(b, out, body)
		if err != nil {
			var in *inboundError
			if errors.As(err, &in) {
				writeRouterError(w, http.StatusBadRequest, server.CodeBadRequest,
					fmt.Sprintf("router: reading request body: %v", in))
				return
			}
			b.noteFailure(r.cfg.failThreshold)
			if body = out.body(); body == nil || attempt >= r.cfg.MaxRetries {
				writeRouterError(w, http.StatusServiceUnavailable, server.CodeOverloaded,
					fmt.Sprintf("router: backend unreachable: %v", err))
				return
			}
			time.Sleep(server.Backoff(r.cfg.retryBase, attempt))
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The node refused temporarily. Only a draining node — one
			// announcing shutting_down — counts toward ejection: it is
			// leaving and probes should gate its return. A merely
			// overloaded node is alive and doing work; ejecting it when
			// the cluster is busiest would cascade its load onto the
			// remaining nodes. Either way the request retries after
			// backoff, floored by the node's own Retry-After.
			refusal := readRefusal(resp)
			if refusal.code == server.CodeShuttingDown {
				b.noteFailure(r.cfg.failThreshold)
			}
			if body = out.body(); body != nil && attempt < r.cfg.MaxRetries {
				d := server.Backoff(r.cfg.retryBase, attempt)
				if refusal.retryAfter > d {
					d = refusal.retryAfter
				}
				time.Sleep(d)
				continue
			}
			// Out of retries: relay the stored refusal verbatim, like
			// passthrough would (the body was consumed to classify it).
			refusal.writeTo(w)
			return
		}
		if resp.StatusCode == http.StatusOK {
			b.noteForwardSuccess()
			if out.pin {
				r.pool.pin(id, b)
			}
		}
		passthrough(w, resp)
		return
	}
}

// maxRefusalBody bounds how much of a 503 body the router reads to
// classify the refusal; error frames are tiny, anything bigger is noise.
const maxRefusalBody = 1 << 20

// refusal is one consumed 503 response: enough to classify it (code),
// pace the retry (retryAfter), and relay it verbatim if retries run out.
type refusal struct {
	code        string
	retryAfter  time.Duration
	contentType string
	body        []byte
}

// readRefusal drains and closes a 503 response, extracting the typed
// error code from its body. Malformed bodies classify as code "" —
// treated like overloaded: alive, not ejectable.
func readRefusal(resp *http.Response) refusal {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxRefusalBody))
	resp.Body.Close()
	ref := refusal{
		contentType: resp.Header.Get("Content-Type"),
		body:        body,
		retryAfter:  server.ParseRetryAfter(resp.Header),
	}
	var er server.ErrorResponse
	if json.Unmarshal(body, &er) == nil {
		ref.code = er.Code
	}
	return ref
}

// writeTo relays the stored refusal with passthrough's header contract.
func (ref refusal) writeTo(w http.ResponseWriter) {
	if ref.contentType != "" {
		w.Header().Set("Content-Type", ref.contentType)
	}
	if ref.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(ref.retryAfter/time.Second)))
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(ref.body)
}

// passthrough relays a backend response verbatim — status, content
// type, and body — so typed error codes survive the hop.
func passthrough(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// fanoutGet issues GET path to every healthy backend and returns the
// decoded bodies that answered 200.
func fanoutGet[T any](r *Router, path string) []T {
	var mu sync.Mutex
	var out []T
	var wg sync.WaitGroup
	for _, b := range r.pool.backends {
		if !b.isHealthy() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			resp, err := r.probe.Get(b.url + path)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var v T
			if json.NewDecoder(io.LimitReader(resp.Body, int64(server.MaxBatchBodyBytes))).Decode(&v) != nil {
				return
			}
			mu.Lock()
			out = append(out, v)
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	return out
}

// handleStats merges every healthy backend's Stats into one cluster
// snapshot: counters sum, session lists concatenate.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	var merged server.Stats
	for _, st := range fanoutGet[server.Stats](r, "/v1/stats") {
		merged.MaxSessions += st.MaxSessions
		merged.Evictions += st.Evictions
		merged.Restores += st.Restores
		merged.Persisted += st.Persisted
		merged.Sessions = append(merged.Sessions, st.Sessions...)
	}
	merged.Draining = r.Draining()
	writeOK(w, merged)
}

// handleSessions concatenates every healthy backend's session list.
func (r *Router) handleSessions(w http.ResponseWriter, req *http.Request) {
	var merged server.SessionsResponse
	merged.Sessions = []server.SessionInfo{}
	for _, sr := range fanoutGet[server.SessionsResponse](r, "/v1/sessions") {
		merged.Sessions = append(merged.Sessions, sr.Sessions...)
	}
	writeOK(w, merged)
}

// handleHealthz answers for the cluster: ok while at least one backend
// is admitted and the router is not draining; 503 otherwise, with the
// server package's health frame so probes of a router and of a node
// read the same.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := r.pool.healthyCount()
	sessions := 0
	for _, st := range fanoutGet[server.HealthResponse](r, "/v1/healthz") {
		sessions += st.Sessions
	}
	h := server.HealthResponse{Status: "ok", Sessions: sessions, Draining: r.Draining()}
	status := http.StatusOK
	switch {
	case h.Draining:
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case healthy == 0:
		h.Status = "no healthy backends"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(h)
}

// handleCluster reports the router's view of the pool.
func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	resp := ClusterResponse{Draining: r.Draining()}
	for _, b := range r.pool.backends {
		resp.Backends = append(resp.Backends, BackendStatus{
			URL:     b.url,
			Healthy: b.isHealthy(),
			Pins:    r.pool.pinCount(b),
		})
	}
	writeOK(w, resp)
}

// handleDeleteSession forwards the delete to the client's shard and
// drops the sticky pin, so a re-registration re-runs placement.
func (r *Router) handleDeleteSession(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("client_id")
	b := r.pool.pick(id, nil)
	if b == nil {
		writeRouterError(w, http.StatusServiceUnavailable, server.CodeOverloaded, "router: no healthy backend")
		return
	}
	delReq, err := http.NewRequest(http.MethodDelete, b.url+server.SessionPath(id), nil)
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, server.CodeInternal, err.Error())
		return
	}
	resp, err := r.hc.Do(delReq)
	if err != nil {
		b.noteFailure(r.cfg.failThreshold)
		writeRouterError(w, http.StatusServiceUnavailable, server.CodeOverloaded,
			fmt.Sprintf("router: backend unreachable: %v", err))
		return
	}
	if resp.StatusCode == http.StatusOK {
		r.pool.unpin(id)
	}
	passthrough(w, resp)
}

// writeOK emits one 200 JSON response.
func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(v)
}
