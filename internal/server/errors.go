package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/noise"
)

// Machine-readable error codes: the `code` field of every non-2xx API
// response. Clients dispatch on these instead of string-matching the
// human-readable `error` message, which remains free to change.
const (
	// CodeBadRequest is any malformed or invalid request (the default).
	CodeBadRequest = "bad_request"
	// CodeUnknownSession means no session (warm or persisted) exists for
	// the client ID: register an eval key first.
	CodeUnknownSession = "unknown_session"
	// CodeSessionEvicted means the session was dropped by the warm-tier
	// LRU and no durable store holds its key: the client must re-upload.
	CodeSessionEvicted = "session_evicted"
	// CodeTooLarge means the request exceeded a batch or body bound.
	CodeTooLarge = "too_large"
	// CodeOverloaded means the session's backpressure queue stayed
	// saturated past the queue timeout. Retryable.
	CodeOverloaded = "overloaded"
	// CodeShuttingDown means the server is draining for shutdown and
	// refuses new work. Retryable (against the restarted server).
	CodeShuttingDown = "shutting_down"
	// CodeNoiseBudget means the parameter set cannot compute the request:
	// a bootstrap's predicted failure exceeds the one noise rule's
	// threshold (noise.Check), and the message names it. Not retryable.
	CodeNoiseBudget = "noise_budget"
	// CodeInternal means a server-side failure (e.g. persistence I/O),
	// not a problem with the request.
	CodeInternal = "internal"
)

// Sentinel errors of the lifecycle and persistence paths; the batch and
// session sentinels live in server.go.
var (
	// ErrSessionEvicted reports a session lost to LRU eviction with no
	// durable store to restore it from.
	ErrSessionEvicted = errors.New("server: session evicted: register the eval key again")
	// ErrOverloaded reports a session whose backpressure queue stayed
	// full past the queue timeout.
	ErrOverloaded = errors.New("server: session overloaded: retry with backoff")
	// ErrShuttingDown reports a draining server refusing new work.
	ErrShuttingDown = errors.New("server: shutting down: retry against the restarted server")
)

// APIError is the typed client-side form of a non-2xx API response:
// the machine-readable code, the HTTP status, and the human-readable
// message. It is what Client methods return for service-level failures,
// so callers switch on Code (or call Temporary) instead of parsing
// message strings.
type APIError struct {
	// Code is one of the Code* constants (or whatever a newer server
	// sent; unknown codes should be treated like CodeBadRequest).
	Code string
	// Status is the HTTP status code of the response.
	Status int
	// Message is the human-readable error text.
	Message string
	// RetryAfter is the response's Retry-After delay, if the server sent
	// one (503s carry it); zero otherwise. The client uses it as the
	// floor of its jittered backoff before re-sending.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d, code %s)", e.Message, e.Status, e.Code)
}

// Temporary reports whether the failure is transient — the server asked
// the client to retry (overloaded, or draining for a restart).
func (e *APIError) Temporary() bool {
	return e.Code == CodeOverloaded || e.Code == CodeShuttingDown
}

// errorStatus maps a service error to its HTTP status and machine code.
func errorStatus(err error) (int, string) {
	var tooBig *http.MaxBytesError
	var api *APIError
	var budget *noise.BudgetError
	switch {
	case errors.As(err, &api):
		return api.Status, api.Code
	case errors.As(err, &budget):
		return http.StatusUnprocessableEntity, CodeNoiseBudget
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound, CodeUnknownSession
	case errors.Is(err, ErrSessionEvicted):
		return http.StatusGone, CodeSessionEvicted
	case errors.Is(err, ErrBatchTooLarge), errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, CodeTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, CodeOverloaded
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, CodeShuttingDown
	case errors.Is(err, errStoreFailure):
		return http.StatusInternalServerError, CodeInternal
	}
	return http.StatusBadRequest, CodeBadRequest
}

// errStoreFailure marks persistence-layer failures so they surface as
// HTTP 500/internal instead of 400/bad_request: the request was fine,
// the server's disk was not.
var errStoreFailure = errors.New("server: session store failure")
