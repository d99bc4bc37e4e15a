package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/tfhe"
	"repro/internal/wire"
)

// Request body bounds. The whole body is buffered and base64-decoded
// before the wire codec can reject it, so these are sized to the largest
// legitimate payload rather than "big enough for anything" — an
// unauthenticated peer should not be able to park gigabytes in server
// memory per connection.
const (
	// MaxKeyBodyBytes bounds a register-key request. Evaluation keys
	// dominate everything else: sets I–III are ~46–62 MB in base64, but
	// the high-precision set IV key is ~1.09 GB binary / ~1.45 GB base64,
	// which this limit must still admit. The connection timeouts on
	// strix.Serve keep a slow-drip peer from parking such a buffer
	// indefinitely.
	MaxKeyBodyBytes = 2 << 30
	// MaxBatchBodyBytes bounds gate/lut batch requests and replies: a
	// maximal default batch (4096 set-I ciphertext pairs) is ~22 MB of
	// base64.
	MaxBatchBodyBytes = 64 << 20
)

// The JSON frames of the HTTP API. Binary fields ([]byte) carry the
// internal/wire encoding and appear as base64 strings on the wire, the
// standard encoding/json treatment.

// RegisterKeyRequest frames POST /v1/register-key.
type RegisterKeyRequest struct {
	ClientID string `json:"client_id"`
	EvalKey  []byte `json:"eval_key"` // wire-encoded evaluation keys
}

// RegisterKeyResponse acknowledges a key registration.
type RegisterKeyResponse struct {
	Params   string `json:"params"`    // parameter set name of the session
	KeyBytes int    `json:"key_bytes"` // decoded key size, for sanity checks
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
//	POST   /v2/eval                  EvalRequest         → EvalResponse
//	POST   /v1/register-key          RegisterKeyRequest  → RegisterKeyResponse
//	GET    /v1/stats                                     → Stats
//	GET    /v1/healthz                                   → HealthResponse
//	GET    /v1/sessions                                  → SessionsResponse
//	DELETE /v1/sessions/{client_id}                      → DeleteSessionResponse
//
// /v2/eval is the single versioned evaluation envelope (see eval.go).
// Every non-2xx reply is an ErrorResponse carrying a machine-readable
// code (see errors.go); 503 replies also carry a Retry-After header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/eval", s.handleEval)
	mux.HandleFunc("POST /v1/register-key", s.handleRegisterKey)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	mux.HandleFunc("DELETE /v1/sessions/{client_id}", s.handleDeleteSession)
	return mux
}

// decodeJSON reads one size-bounded JSON request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any, limit int64) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
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
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
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

// handleRegisterKey decodes and registers a client's evaluation keys.
func (s *Server) handleRegisterKey(w http.ResponseWriter, r *http.Request) {
	var req RegisterKeyRequest
	if err := decodeJSON(w, r, &req, MaxKeyBodyBytes); err != nil {
		writeError(w, fmt.Errorf("server: bad register-key request: %w", err))
		return
	}
	// The encoded path persists the exact uploaded bytes instead of
	// re-marshaling the decoded key.
	p, err := s.RegisterKeyEncoded(req.ClientID, req.EvalKey)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterKeyResponse{Params: p.Name, KeyBytes: len(req.EvalKey)})
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
