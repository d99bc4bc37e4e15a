package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

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

// evalOperands is the decoded payload of an envelope: a gate envelope's
// op, the primary batch (a/cts/inputs by kind) and, for binary gates, the
// second operand batch.
type evalOperands struct {
	op   engine.GateOp
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

// decodeEvalOperands parses a gate envelope's op and wire-decodes the
// ciphertext payload selected by the envelope's kind, after validating
// the envelope's shape.
func decodeEvalOperands(req *EvalRequest) (evalOperands, error) {
	if err := validateEvalShape(req); err != nil {
		return evalOperands{}, err
	}
	var ops evalOperands
	var err error
	switch req.Kind {
	case EvalKindGate:
		if ops.op, err = engine.ParseGate(req.Op); err != nil {
			return evalOperands{}, err
		}
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

// parseEvalRequest decodes the JSON frame of one v2 eval envelope,
// unknown fields rejected. It and decodeEvalOperands, which Eval runs
// next, perform no session-dependent validation — the dimension check and
// the noise rule need the session's parameter set and happen in
// evalDecoded — but they must never panic on arbitrary bytes: the body is
// attacker-controlled, and the two are the fuzzing surface of the whole
// evaluation API (FuzzEvalDecode).
func parseEvalRequest(r io.Reader) (EvalRequest, error) {
	var req EvalRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return EvalRequest{}, fmt.Errorf("server: bad eval request: %w", err)
	}
	return req, nil
}

// evalDecoded runs one shape-validated, wire-decoded envelope on the one
// path every kind takes: admit the request, look its session up, turn the
// envelope into a circuit over its ciphertexts (translate, bounds first),
// check the ciphertexts' dimension, compile the circuit for the session
// (the one noise rule, once), and run it with sched.Execute on the
// session under one backpressure token. A circuit without outputs, an
// empty batch, answers empty without taking one. It returns the flat
// output batch and the outputs-per-input count k.
func (s *Server) evalDecoded(req EvalRequest, ops evalOperands) ([]tfhe.LWECiphertext, int, error) {
	if err := s.begin(); err != nil {
		return nil, 0, err
	}
	defer s.end()
	sess, err := s.session(req.ClientID)
	if err != nil {
		return nil, 0, err
	}
	defer sess.release()
	circ, inputs, k, err := translate(req, ops, s.cfg.MaxBatch)
	var schedule *sched.Schedule
	if err == nil {
		err = sess.checkDims(inputs)
	}
	if err == nil {
		schedule, err = sess.compile(circ, req.Opts.Optimize, s.cfg.MaxBatch)
	}
	if err != nil {
		sess.rejected.Add(1)
		return nil, 0, err
	}
	if circ.NumOutputs() == 0 {
		return nil, k, nil
	}
	if err := sess.acquireSlot(); err != nil {
		return nil, 0, err
	}
	defer sess.releaseSlot()
	out, err := sched.Execute(circ, schedule, inputs, sess)
	return out, k, err
}

// translate turns an envelope into the circuit it evaluates, the inputs
// of that circuit and the outputs per input k. It checks the request's
// bounds (ErrBatchTooLarge) before it builds anything, and the circuit's
// builder checks its ops and tables. A gate batch is n gates over a ++ b,
// a NOT batch n free negations Lin(0, −a), bitwise tfhe.Evaluator.NOT; a
// lookup batch is n one-table lookup groups and a multi-value batch n
// groups of k tables, whose outputs come input-major; a circuit envelope
// its specs; an inference the model workload.BuildInferBatch builds for
// the batch.
func translate(req EvalRequest, ops evalOperands, maxBatch int) (*sched.Circuit, []tfhe.LWECiphertext, int, error) {
	fail := func(err error) (*sched.Circuit, []tfhe.LWECiphertext, int, error) { return nil, nil, 0, err }
	tooLarge := func(format string, args ...any) (*sched.Circuit, []tfhe.LWECiphertext, int, error) {
		return fail(fmt.Errorf("%w: "+format, append([]any{ErrBatchTooLarge}, args...)...))
	}
	a, b, k := ops.a, sched.NewBuilder(), 1
	switch req.Kind {
	case EvalKindGate:
		op := ops.op
		switch {
		case len(a) > maxBatch:
			return tooLarge("%d > %d", len(a), maxBatch)
		case op == engine.NOT && ops.b != nil:
			return fail(fmt.Errorf("server: NOT takes one operand list, got a second of length %d", len(ops.b)))
		case op != engine.NOT && len(ops.b) != len(a):
			return fail(fmt.Errorf("server: operand length mismatch: %d vs %d", len(a), len(ops.b)))
		}
		x, y := b.Inputs(len(a)), b.Inputs(len(ops.b))
		if op == engine.NOT {
			y = x // Gate lowers NOT to Lin(0, −a) and reads no second operand
		}
		for i := range x {
			b.Output(b.Gate(op, x[i], y[i]))
		}
		a = slices.Concat(a, ops.b)
	case EvalKindLUT, EvalKindMultiLUT:
		tables := req.Tables
		if req.Kind == EvalKindLUT {
			tables = [][]int{req.Table}
		}
		if k = len(tables); len(a)*k > maxBatch {
			return tooLarge("%d inputs × %d tables > %d", len(a), k, maxBatch)
		}
		b.Output(b.MultiLUTs(b.Inputs(len(a)), req.Space, tables)...)
	case EvalKindCircuit:
		// Outputs amplify the response (each entry re-encodes a
		// ciphertext), so they are bounded like nodes: a tiny circuit
		// listing one wire millions of times would balloon server memory.
		switch {
		case len(req.Nodes) > maxCircuitNodes:
			return tooLarge("%d nodes > %d", len(req.Nodes), maxCircuitNodes)
		case len(req.Outputs) > maxCircuitNodes:
			return tooLarge("%d outputs > %d", len(req.Outputs), maxCircuitNodes)
		case len(a) > maxBatch:
			return tooLarge("%d inputs > %d", len(a), maxBatch)
		}
		c, err := sched.FromSpecs(req.Nodes, req.Outputs)
		if err != nil {
			return fail(fmt.Errorf("server: bad circuit: %w", err))
		}
		if c.NumInputs() != len(a) {
			return fail(fmt.Errorf("server: circuit has %d inputs, request carries %d", c.NumInputs(), len(a)))
		}
		return c, a, 1, nil
	case EvalKindInfer:
		if len(a) == 0 || len(a)%workload.InferFeatures != 0 {
			return fail(fmt.Errorf("server: inference takes a non-empty multiple of %d feature ciphertexts, got %d",
				workload.InferFeatures, len(a)))
		}
		if len(a) > maxBatch {
			return tooLarge("%d > %d", len(a), maxBatch)
		}
		c, err := workload.BuildInferBatch(len(a) / workload.InferFeatures)
		return c, a, workload.InferClasses, err
	default:
		return fail(evalKindError("unknown kind %q", req.Kind))
	}
	c, err := b.Build()
	return c, a, k, err
}

// Eval executes one v2 evaluation envelope: shape validation, ciphertext
// decode, the one evaluation path (evalDecoded), and re-encode of the
// outputs. It is the programmatic form of POST /v2/eval, and what that
// endpoint runs.
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

// handleEval decodes one v2 eval envelope's frame and runs it through
// Eval.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	req, err := parseEvalRequest(http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes))
	var resp EvalResponse
	if err == nil {
		resp, err = s.Eval(req)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
