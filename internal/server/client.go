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

// jsonInto returns the decoder of a JSON reply into out.
func jsonInto(out any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, out) }
}

// retry sends the request newReq builds — a fresh one per attempt, so its
// body starts over — retrying temporary refusals, and hands the body of a
// 200 reply to decode. A Retry-After the server sent with the refusal
// floors the jittered backoff for that attempt: the server knows how long
// its overload or drain will last better than the client's schedule does.
func (c *Client) retry(newReq func() (*http.Request, error), decode func([]byte) error) error {
	for attempt := 0; ; attempt++ {
		err := c.send(newReq, decode)
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
func (c *Client) send(newReq func() (*http.Request, error), decode func([]byte) error) error {
	req, err := newReq()
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeReply(resp, decode)
}

// decodeReply hands a 200 reply's body to decode, and surfaces any other
// reply's ErrorResponse as a typed *APIError. Replies are batch-sized at
// most, so the batch body bound applies; a reply that declares its size
// is read into one buffer of that size.
func decodeReply(resp *http.Response, decode func([]byte) error) error {
	data, err := readReply(resp)
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
	return decode(data)
}

// readReply reads a reply's body, of its declared size when it has one.
func readReply(resp *http.Response) ([]byte, error) {
	size := resp.ContentLength
	if size < 0 || size > MaxBatchBodyBytes {
		return io.ReadAll(io.LimitReader(resp.Body, MaxBatchBodyBytes))
	}
	return readDeclared(resp.Body, size)
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
	}, jsonInto(&resp))
}

// eval posts one v2 evaluation envelope, req's header over the operand
// lists a and b, as one frame to this client's eval path and decodes the
// flat output batch from the reply frame. Every evaluation method — gate,
// lookup, circuit, inference — funnels through here, so retry policy,
// error typing, and any future routing concerns live in one place.
func (c *Client) eval(req EvalRequest, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, int, error) {
	if err := checkClientID(c.id); err != nil {
		return nil, 0, err
	}
	body, err := appendEvalFrame(req, a, b)
	if err != nil {
		return nil, 0, err
	}
	var out []tfhe.LWECiphertext
	var k int
	err = c.retry(func() (*http.Request, error) {
		hr, err := http.NewRequest(http.MethodPost, c.base+EvalPath(c.id), bytes.NewReader(body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/octet-stream")
		}
		return hr, err
	}, func(data []byte) (err error) {
		out, k, err = decodeEvalReply(data)
		return err
	})
	return out, k, err
}

// evalGrouped is eval for the kinds that answer k outputs per input
// (multilut, infer): out[i][j] is output j of input i.
func (c *Client) evalGrouped(req EvalRequest, a []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	flat, k, err := c.eval(req, a, nil)
	if err != nil {
		return nil, err
	}
	if k <= 0 || len(flat)%k != 0 {
		return nil, fmt.Errorf("server: eval reply shape %d outputs / k=%d", len(flat), k)
	}
	return regroup(flat, k), nil
}

// regroup splits a flat input-major ciphertext slice into k per input.
func regroup(flat []tfhe.LWECiphertext, k int) [][]tfhe.LWECiphertext {
	out := make([][]tfhe.LWECiphertext, len(flat)/k)
	for g := range out {
		out[g] = flat[g*k : (g+1)*k : (g+1)*k]
	}
	return out
}

// GateBatch evaluates out[i] = op(a[i], b[i]) on the server. For the unary
// NOT, b must be nil.
func (c *Client) GateBatch(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	out, _, err := c.eval(EvalRequest{Kind: EvalKindGate, Op: op.String()}, a, b)
	return out, err
}

// CircuitBatch runs a built circuit on the server: the DAG ships as
// serialized node specs, and the server compiles it and runs its
// dispatches on the session's engine. Outputs return in the circuit's
// Output declaration order. EvalOpts{Optimize: true} runs the server-side
// optimizer pass pipeline (CSE, pruning, linear folding, bootstrap fusion,
// multi-value packing within the session's parameter set) first;
// optimized outputs decode identically to unoptimized ones but are not
// bitwise identical to them.
func (c *Client) CircuitBatch(circ *sched.Circuit, inputs []tfhe.LWECiphertext, opts EvalOpts) ([]tfhe.LWECiphertext, error) {
	out, _, err := c.eval(EvalRequest{
		Kind:    EvalKindCircuit,
		Nodes:   circ.Specs(),
		Outputs: circ.OutputWires(),
		Opts:    opts,
	}, inputs, nil)
	return out, err
}

// LUTBatch applies the k ≥ 1 lookup tables (each length space, entries in
// {0..space-1}) to every ciphertext on the server, one blind rotation per
// input serving all k (multi-value PBS; one table is the plain lookup): a
// multilut envelope. out[i][j] is table j applied to cts[i].
func (c *Client) LUTBatch(cts []tfhe.LWECiphertext, space int, tables ...[]int) ([][]tfhe.LWECiphertext, error) {
	return c.evalGrouped(EvalRequest{Kind: EvalKindMultiLUT, Space: space, Tables: tables}, cts)
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
	return c.evalGrouped(EvalRequest{Kind: EvalKindInfer, Opts: opts}, features)
}
