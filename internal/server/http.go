package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/tfhe"
	"repro/internal/wire"
)

// Request body bounds, sized to the largest legitimate payload rather than
// "big enough for anything" — an unauthenticated peer should not be able
// to park gigabytes in server memory per connection.
const (
	// MaxKeyBodyBytes bounds the declared size of a key upload.
	// Evaluation keys dominate everything else: sets I–III are 35–47 MB,
	// but the high-precision set IV key is ~1.09 GB, which this limit must
	// still admit. The upload is never buffered beside the key — it
	// streams into the store, whose bytes are the session's key, and its
	// size must match the parameter header before the first key byte is
	// stored — so what a peer can make the server hold grows only with
	// the bytes it has actually sent (wire.ReadSized). The connection
	// timeouts of ServeHandler keep a slow-drip peer from parking that
	// indefinitely.
	MaxKeyBodyBytes = 2 << 30
	// MaxBatchBodyBytes bounds the declared size of an eval frame, request
	// or reply, which is read whole into one buffer that grows with the
	// bytes that arrive (readDeclared): a maximal default gate batch (4096
	// set-I ciphertext pairs) is 16.4 MB of records.
	MaxBatchBodyBytes = 64 << 20
)

// SessionPath returns the request path of clientID's session, the target
// of a key upload (POST) and of a delete. The ID is one escaped path
// segment, so IDs holding '/', '?', '#' or '%' name exactly themselves.
// The dot segments are escaped too, which PathEscape leaves alone: the
// server refuses them as IDs, and written out they reach it to be refused
// instead of being cleaned into another path by a mux on the way.
func SessionPath(clientID string) string { return "/v1/sessions/" + idSegment(clientID) }

// idSegment escapes a client ID as one path segment.
func idSegment(clientID string) string {
	if dotSegment(clientID) {
		return strings.ReplaceAll(clientID, ".", "%2E")
	}
	return url.PathEscape(clientID)
}

// dotSegment reports whether s is one of the two path segments that
// request-line cleaning removes.
func dotSegment(s string) bool { return s == "." || s == ".." }

// The JSON frames of the HTTP API: every reply but an evaluation's and a
// key upload's, and every error. Ciphertexts travel only in eval frames
// (frame.go).

// RegisterKeyResponse acknowledges a key upload.
type RegisterKeyResponse struct {
	Params   string `json:"params"`    // parameter set name of the session
	KeyBytes int64  `json:"key_bytes"` // encoded key size, for sanity checks
}

// ErrorResponse is the JSON body of every non-2xx reply. Error is the
// human-readable message (kept for older clients and for logs); Code is
// the machine-readable error code clients should dispatch on — one of
// the Code* constants in errors.go.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// HealthResponse frames GET /v1/healthz.
type HealthResponse struct {
	Status   string `json:"status"` // "ok", or "draining" with HTTP 503
	Sessions int    `json:"sessions"`
	Draining bool   `json:"draining"`
}

// SessionsResponse frames GET /v1/sessions.
type SessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// DeleteSessionResponse acknowledges DELETE /v1/sessions/{client_id},
// reporting which tiers actually held the session.
type DeleteSessionResponse struct {
	Warm      bool `json:"warm"`      // a warm-tier session was dropped
	Persisted bool `json:"persisted"` // a durable key was tombstoned
}

// Handler returns the HTTP API of the service:
//
//	POST   /v2/eval/{client_id}      eval frame          → reply frame
//	POST   /v1/sessions/{client_id}  raw encoded key     → RegisterKeyResponse
//	GET    /v1/stats                                     → Stats
//	GET    /v1/healthz                                   → HealthResponse
//	GET    /v1/sessions                                  → SessionsResponse
//	DELETE /v1/sessions/{client_id}                      → DeleteSessionResponse
//
// /v2/eval/{client_id} is the single evaluation envelope, a binary frame
// (see eval.go and frame.go). The key upload's body is the
// wire.EncodeEvalKey bytes. Both requests must declare their size
// (Content-Length), and both are refused unread when it is missing or
// over their bound (see ReadEvalBody and handleRegisterKey).
// Every non-2xx reply is an ErrorResponse carrying a machine-readable
// code (see errors.go); 503 replies also carry a Retry-After header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/eval/{client_id}", s.handleEval)
	mux.HandleFunc("POST /v1/sessions/{client_id}", s.handleRegisterKey)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	mux.HandleFunc("DELETE /v1/sessions/{client_id}", s.handleDeleteSession)
	return mux
}

// writeJSON writes a JSON response with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a service error to its HTTP status and machine code
// (errorStatus in errors.go). Retryable refusals advertise Retry-After
// so well-behaved clients pace their backoff.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	msg := err.Error()
	if api, ok := err.(*APIError); ok {
		msg = api.Message // a refusal made in its typed form goes out as made
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// decodeCiphertexts decodes a batch of wire-encoded LWE ciphertexts.
func decodeCiphertexts(blobs [][]byte, field string) ([]tfhe.LWECiphertext, error) {
	if blobs == nil {
		return nil, nil
	}
	cts := make([]tfhe.LWECiphertext, len(blobs))
	for i, blob := range blobs {
		ct, err := wire.UnmarshalLWE(blob)
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", field, i, err)
		}
		cts[i] = ct
	}
	return cts, nil
}

// encodeCiphertexts encodes a batch of result ciphertexts.
func encodeCiphertexts(cts []tfhe.LWECiphertext) [][]byte {
	out := make([][]byte, len(cts))
	for i, ct := range cts {
		out[i] = wire.MarshalLWE(ct)
	}
	return out
}

// handleRegisterKey streams one uploaded key into a session. The body is
// the raw wire.EncodeEvalKey bytes and must declare its size (a chunked
// upload is refused): the size is what the parameter header is checked
// against, and what the store reads. A bad size, a draining server and
// a bad ID are all refused before the first body byte is read, so a peer
// that waits for 100 Continue never sends the key.
func (s *Server) handleRegisterKey(w http.ResponseWriter, r *http.Request) {
	size, err := declaredSize(r, MaxKeyBodyBytes, "key upload")
	if err != nil {
		writeError(w, err)
		return
	}
	body := &touchReader{r: r.Body}
	p, err := s.register(r.PathValue("client_id"), size, body, nil)
	if err != nil {
		if body.touched {
			// The peer is still sending. Answering now would close the
			// connection under it, and it would see a reset, not this
			// error: take the rest of what it declared first.
			_, _ = io.Copy(io.Discard, r.Body)
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterKeyResponse{Params: p.Name, KeyBytes: size})
}

// touchReader records whether its source has been read.
type touchReader struct {
	r       io.Reader
	touched bool
}

// Read implements io.Reader.
func (t *touchReader) Read(p []byte) (int, error) {
	t.touched = true
	return t.r.Read(p)
}

// handleStats reports the service metrics snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz reports readiness: 200 while serving, 503 once draining
// — the signal load balancers and init systems watch to stop routing new
// work during a graceful shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Sessions: len(s.Sessions())}
	if s.Draining() {
		resp.Status = "draining"
		resp.Draining = true
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessions lists every live session across the warm and durable
// tiers.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SessionsResponse{Sessions: s.SessionList()})
}

// handleDeleteSession evicts one session from both tiers.
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	warm, persisted, err := s.DeleteSession(r.PathValue("client_id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteSessionResponse{Warm: warm, Persisted: persisted})
}
