package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// The v2 evaluation envelope: every batch operation — gate, lookup,
// circuit, inference — travels as one binary frame (frame.go) through
// POST /v2/eval/{client_id}, so a routing tier can forward, retry, and
// account for all evaluation traffic by path, without parsing a body,
// instead of knowing one endpoint per op shape. It is the only
// evaluation entry of the HTTP API.

// Eval envelope kinds: the Kind field of an EvalRequest.
const (
	// EvalKindGate evaluates a boolean gate batch (Op, A, and B for
	// binary gates; B absent for the unary NOT).
	EvalKindGate = "gate"
	// EvalKindMultiLUT applies k ≥ 1 lookup tables (Space, Tables) to
	// Cts via multi-value PBS; the response carries k outputs per input.
	// A single lookup is the one-table group.
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

// EvalRequest is one versioned envelope for every batch evaluation. Kind
// selects the operation; only that kind's payload fields may be set
// (stray fields from another kind are rejected, so an envelope always has
// one unambiguous meaning). Its JSON is the header of an eval frame: the
// client ID travels in the request path and the ciphertexts as the
// frame's records, so those fields are not part of it. Server.Eval takes
// the ciphertexts in process as wire-encoded LWE objects.
type EvalRequest struct {
	ClientID string `json:"-"`
	Kind     string `json:"kind"`

	// Gate payload.
	Op string   `json:"op,omitempty"` // gate mnemonic, e.g. "NAND"
	A  [][]byte `json:"-"`            // the frame's first list
	B  [][]byte `json:"-"`            // the frame's second list; absent for the unary NOT

	// Multi-value LUT payload.
	Space  int      `json:"space,omitempty"`  // message space of the tables
	Tables [][]int  `json:"tables,omitempty"` // k tables, each length Space, entries in {0..Space-1}
	Cts    [][]byte `json:"-"`                // the frame's first list

	// Circuit payload.
	Nodes   []sched.NodeSpec `json:"nodes,omitempty"`
	Outputs []int            `json:"outputs,omitempty"`
	Inputs  [][]byte         `json:"-"` // the frame's first list

	// Opts modifies execution (see EvalOpts).
	Opts EvalOpts `json:"opts,omitempty"`
}

// EvalResponse carries the results of one in-process evaluation
// (Server.Eval) as wire-encoded LWE objects. Out is flat in input-major
// order; K is the number of outputs per input (1 for gate and circuit
// envelopes; the table count for multilut, the class count for infer), so
// Out[i*K+j] is output j of input i.
type EvalResponse struct {
	Out [][]byte
	K   int
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

// validateEvalShape rejects envelopes whose header fields leak across
// kinds, so a request always means exactly one operation. It needs no
// session state, runs before any ciphertext decode, and must never
// panic: the envelope is attacker-controlled. The ciphertext lists are
// the frame's (decodeEvalFrame refuses a second list on any kind but a
// gate) and, in process, evalLists'.
func validateEvalShape(req *EvalRequest) error {
	type field struct {
		name string
		set  bool
	}
	fields := []field{
		{"op", req.Op != ""},
		{"space", req.Space != 0},
		{"tables", req.Tables != nil},
		{"nodes", req.Nodes != nil},
		{"outputs", req.Outputs != nil},
	}
	allowed := map[string]map[string]bool{
		EvalKindGate:     {"op": true},
		EvalKindMultiLUT: {"space": true, "tables": true},
		EvalKindCircuit:  {"nodes": true, "outputs": true},
		EvalKindInfer:    {},
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

// evalLists decodes the wire-encoded ciphertexts of an in-process
// envelope into the frame's first and second lists: a and b for a gate,
// cts for a lookup, inputs for a circuit or an inference. A first list of
// another kind is refused here; b goes as the second list whatever the
// kind, and the frame decoder refuses it on any kind but a gate.
func evalLists(req EvalRequest) (first, second []tfhe.LWECiphertext, err error) {
	named := []struct {
		name string
		list [][]byte
		kind bool
	}{
		{"a", req.A, req.Kind == EvalKindGate},
		{"cts", req.Cts, req.Kind == EvalKindMultiLUT},
		{"inputs", req.Inputs, req.Kind == EvalKindCircuit || req.Kind == EvalKindInfer},
	}
	for _, f := range named {
		switch {
		case f.kind:
			first, err = decodeCiphertexts(f.list, f.name)
		case f.list != nil:
			err = evalKindError("field %q is not part of a %q envelope", f.name, req.Kind)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	second, err = decodeCiphertexts(req.B, "b")
	return first, second, err
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
// lookup batch n groups of k ≥ 1 tables, whose outputs come input-major;
// a circuit envelope its specs; an inference the model
// workload.BuildInferBatch builds for the batch.
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
	case EvalKindMultiLUT:
		if k = len(req.Tables); len(a)*k > maxBatch {
			return tooLarge("%d inputs × %d tables > %d", len(a), k, maxBatch)
		}
		b.Output(b.LUTs(b.Inputs(len(a)), req.Space, req.Tables...)...)
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

// Eval executes one v2 evaluation envelope in process, as
// POST /v2/eval/{client_id} would: the envelope's wire-encoded ciphertexts
// are decoded into an eval frame, which runs through evalFrame, and the
// reply frame's outputs come back wire-encoded. Only the wire objects
// around the frame are its own.
func (s *Server) Eval(req EvalRequest) (EvalResponse, error) {
	a, b, err := evalLists(req)
	if err != nil {
		return EvalResponse{}, err
	}
	frame, err := appendEvalFrame(req, a, b)
	if err != nil {
		return EvalResponse{}, err
	}
	reply, err := s.evalFrame(req.ClientID, frame)
	if err != nil {
		return EvalResponse{}, err
	}
	out, k, err := decodeEvalReply(reply)
	if err != nil {
		return EvalResponse{}, err
	}
	return EvalResponse{Out: encodeCiphertexts(out), K: k}, nil
}

// handleEval reads one eval frame of its declared size, runs it through
// evalFrame and answers the reply frame with its Content-Length.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	body, err := ReadEvalBody(r)
	var reply []byte
	if err == nil {
		reply, err = s.evalFrame(r.PathValue("client_id"), body)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(reply)
}

// evalFrame decodes one request frame for clientID, runs it on the one
// evaluation path (evalDecoded) and encodes the reply frame.
func (s *Server) evalFrame(clientID string, body []byte) ([]byte, error) {
	req, ops, err := decodeEvalFrame(body, s.cfg.MaxBatch)
	if errors.Is(err, ErrBatchTooLarge) {
		return nil, s.reject(clientID, err)
	}
	if err != nil {
		return nil, err
	}
	req.ClientID = clientID
	out, k, err := s.evalDecoded(req, ops)
	if err != nil {
		return nil, err
	}
	return appendEvalReply(k, out)
}

// reject answers err, the batch bound decodeEvalFrame checks before it
// sizes any record, as evalDecoded answers translate's: after admission
// and the session lookup, whose refusals come first, and counted against
// the session.
func (s *Server) reject(clientID string, err error) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	sess, lookup := s.session(clientID)
	if lookup != nil {
		return lookup
	}
	sess.rejected.Add(1)
	sess.release()
	return err
}
