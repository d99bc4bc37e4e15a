package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// The v2 evaluation envelope: every batch operation — gate, LUT,
// multi-value LUT, circuit — travels as one versioned frame through
// POST /v2/eval, so a routing tier can forward, retry, and account for
// all evaluation traffic uniformly instead of knowing one endpoint per
// op shape. It is the only evaluation entry of the HTTP API.

// Eval envelope kinds: the Kind field of an EvalRequest.
const (
	// EvalKindGate evaluates a boolean gate batch (Op, A, and B for
	// binary gates; B absent for the unary NOT).
	EvalKindGate = "gate"
	// EvalKindLUT applies one lookup table (Space, Table) to Cts.
	EvalKindLUT = "lut"
	// EvalKindMultiLUT applies k lookup tables (Space, Tables) to Cts
	// via multi-value PBS; the response carries k outputs per input.
	EvalKindMultiLUT = "multilut"
	// EvalKindCircuit executes a serialized circuit DAG (Nodes, Outputs)
	// over Inputs, optionally through the optimizer pass pipeline.
	EvalKindCircuit = "circuit"
	// EvalKindInfer runs the built-in cellCNN-style inference model over
	// Inputs — a batch of encrypted feature vectors, each
	// workload.InferFeatures ciphertexts, vector-major — and answers
	// workload.InferClasses encrypted class scores per vector. The model
	// circuit is built server-side, so the payload is just the features;
	// opts.optimize runs it through the scheduler's optimizer first.
	EvalKindInfer = "infer"
)

// EvalOpts carries the option surface of a v2 evaluation: knobs that
// modify how an envelope executes without changing what it computes.
type EvalOpts struct {
	// Optimize runs the scheduler's full optimizer pass pipeline over a
	// circuit envelope before execution (CSE, pruning, linear folding,
	// bootstrap fusion, multi-value packing bounded by the session's
	// parameter set). Outputs decode identically to the unoptimized
	// circuit but are not bitwise identical, and the rewrite passes the
	// one noise rule like any circuit: a packing it refuses comes back
	// as noise_budget. Only valid for circuit and infer envelopes.
	Optimize bool `json:"optimize,omitempty"`
}

// EvalRequest frames POST /v2/eval: one versioned envelope for every
// batch evaluation. Kind selects the operation; only that kind's payload
// fields may be set (stray fields from another kind are rejected, so an
// envelope always has one unambiguous meaning a router can account for).
type EvalRequest struct {
	ClientID string `json:"client_id"`
	Kind     string `json:"kind"`

	// Gate payload.
	Op string   `json:"op,omitempty"` // gate mnemonic, e.g. "NAND"
	A  [][]byte `json:"a,omitempty"`  // wire-encoded LWE ciphertexts
	B  [][]byte `json:"b,omitempty"`  // absent for the unary NOT

	// LUT / multi-value LUT payload.
	Space  int      `json:"space,omitempty"`  // message space of the table(s)
	Table  []int    `json:"table,omitempty"`  // lut: length Space, entries in {0..Space-1}
	Tables [][]int  `json:"tables,omitempty"` // multilut: k tables, each length Space
	Cts    [][]byte `json:"cts,omitempty"`    // wire-encoded LWE ciphertexts

	// Circuit payload.
	Nodes   []sched.NodeSpec `json:"nodes,omitempty"`
	Outputs []int            `json:"outputs,omitempty"`
	Inputs  [][]byte         `json:"inputs,omitempty"` // wire-encoded LWE ciphertexts

	// Opts modifies execution (see EvalOpts).
	Opts EvalOpts `json:"opts,omitempty"`
}

// EvalResponse carries the results of one v2 evaluation. Out is flat in
// input-major order; K is the number of outputs per input (1 for gate,
// lut, and circuit envelopes; the table count for multilut), so
// Out[i*K+j] is output j of input i.
type EvalResponse struct {
	Out [][]byte `json:"out"`
	K   int      `json:"k"`
}

// evalOperands is the wire-decoded ciphertext payload of an envelope:
// the primary batch (a/cts/inputs by kind) and, for binary gates, the
// second operand batch.
type evalOperands struct {
	a, b []tfhe.LWECiphertext
}

// evalKindError reports an envelope whose payload does not match its
// kind — a stray field, an unknown kind, or options the kind does not
// take.
func evalKindError(format string, args ...any) error {
	return fmt.Errorf("server: bad eval envelope: "+format, args...)
}

// validateEvalShape rejects envelopes whose payload fields leak across
// kinds, so a request always means exactly one operation. It needs no
// session state, runs before any ciphertext decode, and must never
// panic: the envelope is attacker-controlled.
func validateEvalShape(req *EvalRequest) error {
	type field struct {
		name string
		set  bool
	}
	fields := []field{
		{"op", req.Op != ""},
		{"a", req.A != nil},
		{"b", req.B != nil},
		{"space", req.Space != 0},
		{"table", req.Table != nil},
		{"tables", req.Tables != nil},
		{"cts", req.Cts != nil},
		{"nodes", req.Nodes != nil},
		{"outputs", req.Outputs != nil},
		{"inputs", req.Inputs != nil},
	}
	allowed := map[string]map[string]bool{
		EvalKindGate:     {"op": true, "a": true, "b": true},
		EvalKindLUT:      {"space": true, "table": true, "cts": true},
		EvalKindMultiLUT: {"space": true, "tables": true, "cts": true},
		EvalKindCircuit:  {"nodes": true, "outputs": true, "inputs": true},
		EvalKindInfer:    {"inputs": true},
	}
	ok, known := allowed[req.Kind]
	if !known {
		return evalKindError("unknown kind %q", req.Kind)
	}
	for _, f := range fields {
		if f.set && !ok[f.name] {
			return evalKindError("field %q is not part of a %q envelope", f.name, req.Kind)
		}
	}
	if req.Opts.Optimize && req.Kind != EvalKindCircuit && req.Kind != EvalKindInfer {
		return evalKindError("optimize applies only to circuit and infer envelopes")
	}
	return nil
}

// decodeEvalOperands wire-decodes the ciphertext payload selected by the
// envelope's kind, after validating the envelope's shape.
func decodeEvalOperands(req *EvalRequest) (evalOperands, error) {
	if err := validateEvalShape(req); err != nil {
		return evalOperands{}, err
	}
	var ops evalOperands
	var err error
	switch req.Kind {
	case EvalKindGate:
		if ops.a, err = decodeCiphertexts(req.A, "a"); err != nil {
			return evalOperands{}, err
		}
		if ops.b, err = decodeCiphertexts(req.B, "b"); err != nil {
			return evalOperands{}, err
		}
	case EvalKindLUT, EvalKindMultiLUT:
		if ops.a, err = decodeCiphertexts(req.Cts, "cts"); err != nil {
			return evalOperands{}, err
		}
	case EvalKindCircuit, EvalKindInfer:
		if ops.a, err = decodeCiphertexts(req.Inputs, "inputs"); err != nil {
			return evalOperands{}, err
		}
	}
	return ops, nil
}

// parseEvalRequest decodes one v2 eval envelope: the JSON frame (unknown
// fields rejected), the kind/shape validation, and the wire decode of
// every ciphertext. It performs no session-dependent validation — space,
// table, and dimension checks need the session's parameter set and
// happen in the batch methods — but it must never panic on arbitrary
// bytes: the body is attacker-controlled, and this helper is the fuzzing
// surface of the whole evaluation API (FuzzEvalDecode).
func parseEvalRequest(r io.Reader) (EvalRequest, evalOperands, error) {
	var req EvalRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return EvalRequest{}, evalOperands{}, fmt.Errorf("server: bad eval request: %w", err)
	}
	ops, err := decodeEvalOperands(&req)
	if err != nil {
		return EvalRequest{}, evalOperands{}, err
	}
	return req, ops, nil
}

// evalDecoded dispatches one shape-validated, wire-decoded envelope to
// the session core. It returns the flat output batch and the
// outputs-per-input count k.
func (s *Server) evalDecoded(req EvalRequest, ops evalOperands) ([]tfhe.LWECiphertext, int, error) {
	switch req.Kind {
	case EvalKindGate:
		op, err := engine.ParseGate(req.Op)
		if err != nil {
			return nil, 0, err
		}
		out, err := s.GateBatch(req.ClientID, op, ops.a, ops.b)
		return out, 1, err
	case EvalKindLUT:
		out, err := s.LUTBatch(req.ClientID, ops.a, req.Space, req.Table)
		return out, 1, err
	case EvalKindMultiLUT:
		groups, err := s.MultiLUTBatch(req.ClientID, ops.a, req.Space, req.Tables)
		if err != nil {
			return nil, 0, err
		}
		k := len(req.Tables)
		flat := make([]tfhe.LWECiphertext, 0, len(groups)*k)
		for _, g := range groups {
			flat = append(flat, g...)
		}
		return flat, k, nil
	case EvalKindCircuit:
		out, err := s.CircuitBatch(req.ClientID, req.Nodes, req.Outputs, ops.a, req.Opts.Optimize)
		return out, 1, err
	case EvalKindInfer:
		out, err := s.InferBatch(req.ClientID, ops.a, req.Opts.Optimize)
		return out, workload.InferClasses, err
	}
	return nil, 0, evalKindError("unknown kind %q", req.Kind)
}

// Eval executes one v2 evaluation envelope: shape validation, ciphertext
// decode, dispatch to the session core, and re-encode of the outputs.
// It is the programmatic form of POST /v2/eval.
func (s *Server) Eval(req EvalRequest) (EvalResponse, error) {
	ops, err := decodeEvalOperands(&req)
	if err != nil {
		return EvalResponse{}, err
	}
	out, k, err := s.evalDecoded(req, ops)
	if err != nil {
		return EvalResponse{}, err
	}
	return EvalResponse{Out: encodeCiphertexts(out), K: k}, nil
}

// handleEval decodes, dispatches, and re-encodes one v2 eval envelope.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	req, ops, err := parseEvalRequest(http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	out, k, err := s.evalDecoded(req, ops)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EvalResponse{Out: encodeCiphertexts(out), K: k})
}
