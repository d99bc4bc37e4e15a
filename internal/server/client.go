package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// Client retry defaults: a transient refusal (HTTP 503, code overloaded
// or shutting_down) is retried up to DefaultMaxRetries times with
// jittered exponential backoff starting at DefaultRetryBase.
const (
	DefaultMaxRetries = 3
	DefaultRetryBase  = 100 * time.Millisecond
)

// Client speaks the gate service's HTTP API on behalf of one client ID.
// The secret keys never leave the caller: the client ships only the
// wire-encoded evaluation keys and ciphertexts. Safe for concurrent use.
//
// Service-level failures surface as *APIError, so callers can dispatch
// on the machine-readable code. Temporary refusals (overloaded,
// shutting_down) are retried transparently with bounded jittered
// backoff before the error is returned.
type Client struct {
	base       string
	id         string
	hc         *http.Client
	maxRetries int
	retryBase  time.Duration
}

// Dial returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8475") acting as clientID. No connection is made
// until the first request. No endpoint of the service redirects, so the
// client follows none: a 3xx is an error, never some other path's reply.
func Dial(baseURL, clientID string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		id:   clientID,
		hc: &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}},
		maxRetries: DefaultMaxRetries,
		retryBase:  DefaultRetryBase,
	}
}

// SetRetry overrides the retry policy: at most maxRetries re-sends of a
// temporarily refused request, backing off from base. maxRetries 0
// disables retries.
func (c *Client) SetRetry(maxRetries int, base time.Duration) {
	c.maxRetries = maxRetries
	if base > 0 {
		c.retryBase = base
	}
}

// ClientID returns the client ID requests are issued under.
func (c *Client) ClientID() string { return c.id }

// checkClientID refuses, before anything is sent, an ID the server would
// refuse, with the error its reply would have decoded to.
func checkClientID(clientID string) error {
	if err := validateClientID(clientID); err != nil {
		return &APIError{Code: CodeBadRequest, Status: http.StatusBadRequest, Message: err.Error()}
	}
	return nil
}

// retryable reports whether the failure is worth re-sending: the server
// explicitly asked for a retry (503 overloaded/shutting_down).
func retryable(err error) bool {
	var api *APIError
	return errors.As(err, &api) && api.Temporary()
}

// do sends one request with an optional JSON body through retry.
func (c *Client) do(method, path string, body []byte, out any) error {
	return c.retry(func() (*http.Request, error) {
		if body == nil {
			return http.NewRequest(method, c.base+path, nil)
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}, out)
}

// retry sends the request newReq builds — a fresh one per attempt, so its
// body starts over — retrying temporary refusals, and decodes the reply
// into out. A Retry-After the server sent with the refusal floors the
// jittered backoff for that attempt: the server knows how long its
// overload or drain will last better than the client's schedule does.
func (c *Client) retry(newReq func() (*http.Request, error), out any) error {
	for attempt := 0; ; attempt++ {
		err := c.send(newReq, out)
		if err == nil || !retryable(err) || attempt >= c.maxRetries {
			return err
		}
		d := Backoff(c.retryBase, attempt)
		var api *APIError
		if errors.As(err, &api) && api.RetryAfter > d {
			d = api.RetryAfter
		}
		time.Sleep(d)
	}
}

// send sends exactly one request.
func (c *Client) send(newReq func() (*http.Request, error), out any) error {
	req, err := newReq()
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeReply(resp, out)
}

// post sends one JSON request and decodes the reply into out.
func (c *Client) post(path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, path, body, out)
}

// decodeReply decodes a service reply, surfacing ErrorResponse bodies as
// typed *APIError values. Replies are batch-sized at most, so the batch
// body bound applies.
func decodeReply(resp *http.Response, out any) error {
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode, Code: CodeInternal, RetryAfter: ParseRetryAfter(resp.Header)}
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			apiErr.Message = er.Error
			apiErr.Code = er.Code
			if apiErr.Code == "" {
				// Pre-code server: classify by status alone.
				apiErr.Code = CodeBadRequest
			}
		} else {
			apiErr.Message = fmt.Sprintf("HTTP %d", resp.StatusCode)
		}
		return apiErr
	}
	return json.Unmarshal(data, out)
}

// ParseRetryAfter parses a response's Retry-After delay. Both the server
// and the router send it as whole seconds on 503s; an absent, malformed,
// or HTTP-date header yields 0 (no floor), and the result is clamped to
// MaxBackoff so a hostile header cannot park the caller.
func ParseRetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > MaxBackoff {
		d = MaxBackoff
	}
	return d
}

// RegisterKey uploads the evaluation keys, creating (or replacing) this
// client's session. The body is the raw wire encoding, produced from ek as
// the connection takes it — the key never exists encoded on this side —
// with its exact length declared. Expect: 100-continue holds the body back
// until the server has admitted the request, so a refusal (draining, a
// router without a backend) costs a header exchange, not 49 MB.
func (c *Client) RegisterKey(ek tfhe.EvaluationKeys) error {
	if err := checkClientID(c.id); err != nil {
		return err
	}
	_, size, err := wire.EncodeEvalKey(ek)
	if err != nil {
		return err
	}
	// The transport calls GetBody to resend on a connection that died
	// idle; every body, first or resent, is a fresh encoder.
	newBody := func() (io.ReadCloser, error) {
		enc, _, err := wire.EncodeEvalKey(ek)
		return io.NopCloser(enc), err
	}
	var resp RegisterKeyResponse
	return c.retry(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+SessionPath(c.id), nil)
		if err != nil {
			return nil, err
		}
		if req.Body, err = newBody(); err != nil {
			return nil, err
		}
		req.GetBody = newBody
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("Expect", "100-continue")
		return req, nil
	}, &resp)
}

// eval posts one v2 evaluation envelope under this client's ID and
// decodes the flat output batch. Every evaluation method — gate, LUT,
// multi-value LUT, circuit — funnels through here, so retry policy,
// error typing, and any future routing concerns live in one place.
func (c *Client) eval(req EvalRequest) ([]tfhe.LWECiphertext, int, error) {
	req.ClientID = c.id
	var resp EvalResponse
	if err := c.post("/v2/eval", req, &resp); err != nil {
		return nil, 0, err
	}
	out, err := decodeCiphertexts(resp.Out, "out")
	if err != nil {
		return nil, 0, err
	}
	return out, resp.K, nil
}

// evalGrouped is eval for the kinds that answer k outputs per input
// (multilut, infer): out[i][j] is output j of input i.
func (c *Client) evalGrouped(req EvalRequest) ([][]tfhe.LWECiphertext, error) {
	flat, k, err := c.eval(req)
	if err != nil {
		return nil, err
	}
	if k <= 0 || len(flat)%k != 0 {
		return nil, fmt.Errorf("server: eval reply shape %d outputs / k=%d", len(flat), k)
	}
	return regroup(flat, k), nil
}

// GateBatch evaluates out[i] = op(a[i], b[i]) on the server. For the unary
// NOT, b must be nil.
func (c *Client) GateBatch(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	req := EvalRequest{Kind: EvalKindGate, Op: op.String(), A: encodeCiphertexts(a)}
	if b != nil {
		req.B = encodeCiphertexts(b)
	}
	out, _, err := c.eval(req)
	return out, err
}

// CircuitBatch runs a built circuit on the server: the DAG ships as
// serialized node specs, the server levelizes it and coalesces every
// level dispatch with concurrent session traffic. Outputs return in the
// circuit's Output declaration order.
func (c *Client) CircuitBatch(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return c.CircuitBatchOpts(circ, inputs, EvalOpts{})
}

// CircuitBatchOpts is CircuitBatch with the envelope options exposed:
// EvalOpts{Optimize: true} runs the server-side optimizer pass pipeline
// (CSE, pruning, linear folding, bootstrap fusion, multi-value packing
// within the session's parameter set) before execution. Optimized
// outputs decode identically to unoptimized ones but are not bitwise
// identical to them.
func (c *Client) CircuitBatchOpts(circ *sched.Circuit, inputs []tfhe.LWECiphertext, opts EvalOpts) ([]tfhe.LWECiphertext, error) {
	out, _, err := c.eval(EvalRequest{
		Kind:    EvalKindCircuit,
		Nodes:   circ.Specs(),
		Outputs: circ.OutputWires(),
		Inputs:  encodeCiphertexts(inputs),
		Opts:    opts,
	})
	return out, err
}

// LUTBatch applies the lookup table (length space, entries in
// {0..space-1}) to every ciphertext on the server.
func (c *Client) LUTBatch(cts []tfhe.LWECiphertext, space int, table []int) ([]tfhe.LWECiphertext, error) {
	out, _, err := c.eval(EvalRequest{Kind: EvalKindLUT, Space: space, Table: table, Cts: encodeCiphertexts(cts)})
	return out, err
}

// MultiLUTBatch applies k lookup tables (each length space, entries in
// {0..space-1}) to every ciphertext on the server via multi-value PBS —
// one blind rotation per input serves all k tables. out[i][j] is table j
// applied to cts[i].
func (c *Client) MultiLUTBatch(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	return c.evalGrouped(EvalRequest{Kind: EvalKindMultiLUT, Space: space, Tables: tables, Cts: encodeCiphertexts(cts)})
}

// Infer runs the server's built-in cellCNN-style inference model over a
// batch of encrypted feature vectors: features is vector-major,
// workload.InferFeatures InferSpace-encoded ciphertexts per inference.
// out[i] is inference i's workload.InferClasses encrypted class scores,
// which decode to workload.InferReference's cleartext scores; the caller
// decrypts and argmaxes (workload.InferPredict) to read the prediction.
// opts with Optimize runs the model through the server-side optimizer
// pass pipeline first.
func (c *Client) Infer(features []tfhe.LWECiphertext, opts EvalOpts) ([][]tfhe.LWECiphertext, error) {
	return c.evalGrouped(EvalRequest{Kind: EvalKindInfer, Inputs: encodeCiphertexts(features), Opts: opts})
}

// Stats fetches the service metrics snapshot.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	if err := c.do(http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Healthz fetches the server's readiness. A draining server answers 503
// with its HealthResponse body; that surfaces as a shutting_down
// *APIError alongside the decoded health state, and is never retried —
// health probes want the current answer, not a lucky one.
func (c *Client) Healthz() (HealthResponse, error) {
	resp, err := c.hc.Get(c.base + "/v1/healthz")
	if err != nil {
		return HealthResponse{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchBodyBytes))
	if err != nil {
		return HealthResponse{}, err
	}
	var h HealthResponse
	if err := json.Unmarshal(data, &h); err != nil {
		return HealthResponse{}, err
	}
	if resp.StatusCode == http.StatusOK {
		return h, nil
	}
	code := CodeInternal
	if h.Draining {
		code = CodeShuttingDown
	}
	return h, &APIError{Code: code, Status: resp.StatusCode, Message: "server is " + h.Status}
}

// Sessions lists every live session on the server, across both the warm
// and durable tiers.
func (c *Client) Sessions() ([]SessionInfo, error) {
	var resp SessionsResponse
	if err := c.do(http.MethodGet, "/v1/sessions", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// DeleteSession evicts clientID's session from every tier: the warm
// engine cache and, when the server persists keys, the durable store
// (via a WAL tombstone). Deleting an unknown session returns an
// *APIError with code unknown_session.
func (c *Client) DeleteSession(clientID string) (DeleteSessionResponse, error) {
	var resp DeleteSessionResponse
	if err := checkClientID(clientID); err != nil {
		return resp, err
	}
	err := c.do(http.MethodDelete, SessionPath(clientID), nil, &resp)
	return resp, err
}
