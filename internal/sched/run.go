package sched

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/tfhe"
)

// Executor runs one dispatch worth of PBS work. Implementations must
// return exactly one output per input (one output group per input for
// MultiLUT), in input order, computing the same per-item operation as the
// sequential evaluator (the Runner and the gate service's session path
// qualify).
type Executor interface {
	// Gate evaluates out[i] = d.Ops[i](a[i], b[i]).
	Gate(d Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)
	// LUT applies d.Table (message space d.Space) to every ciphertext.
	LUT(d Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)
	// MultiLUT applies the d.Tables group (message space d.Space) to
	// every ciphertext via multi-value PBS: out[g][i] is table i applied
	// to in[g], all k outputs of a group from one blind rotation.
	MultiLUT(d Dispatch, in []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error)
}

// evalLin computes one linear node over the resolved wire values. dim is
// the circuit's LWE dimension fallback for constant (term-less) nodes,
// negative when unknown.
func evalLin(n node, vals []tfhe.LWECiphertext, dim int) (tfhe.LWECiphertext, error) {
	d := dim
	if len(n.terms) > 0 {
		d = vals[n.terms[0].W].N()
	}
	if d < 0 {
		return tfhe.LWECiphertext{}, fmt.Errorf("sched: constant node in a circuit with no inputs (LWE dimension unknown)")
	}
	out := tfhe.NewLWECiphertext(d)
	out.AddPlain(n.k)
	for _, t := range n.terms {
		v := vals[t.W]
		switch t.C {
		case 0:
		case 1:
			out.AddTo(v)
		case -1:
			out.SubTo(v)
		default:
			tmp := v.Copy()
			tmp.MulScalar(t.C)
			out.AddTo(tmp)
		}
	}
	return out, nil
}

// runLins folds the linear nodes of one level boundary into vals.
func runLins(c *Circuit, lins []Wire, vals []tfhe.LWECiphertext, dim int) error {
	for _, w := range lins {
		v, err := evalLin(c.nodes[w], vals, dim)
		if err != nil {
			return err
		}
		vals[w] = v
	}
	return nil
}

// Execute runs a compiled schedule over the inputs, dispatching every
// level batch through ex and folding the free linear nodes in between.
// Wires resolve against the schedule's (possibly optimizer-rewritten)
// circuit; c must be the source circuit the schedule was compiled from.
// Outputs are returned in Output declaration order. Output ciphertexts
// are fresh except when an output wire is itself an input wire (or, in
// optimized schedules, when outputs merged into one node).
func Execute(c *Circuit, s *Schedule, inputs []tfhe.LWECiphertext, ex Executor) ([]tfhe.LWECiphertext, error) {
	if s.nodes != len(c.nodes) {
		return nil, fmt.Errorf("sched: schedule was compiled from a %d-node circuit, got %d nodes", s.nodes, len(c.nodes))
	}
	ec := s.circ
	if ec == nil {
		ec = c
	}
	if len(inputs) != len(ec.inputs) {
		return nil, fmt.Errorf("sched: circuit has %d inputs, got %d", len(ec.inputs), len(inputs))
	}
	vals := make([]tfhe.LWECiphertext, len(ec.nodes))
	dim := -1
	for k, w := range ec.inputs {
		vals[w] = inputs[k]
		dim = inputs[k].N()
	}
	if err := runLins(ec, s.linAt[0], vals, dim); err != nil {
		return nil, err
	}
	for l := range s.levels {
		for _, d := range s.levels[l].Dispatches {
			var out []tfhe.LWECiphertext
			var err error
			switch d.Kind {
			case DispatchGate:
				a := make([]tfhe.LWECiphertext, len(d.Nodes))
				b := make([]tfhe.LWECiphertext, len(d.Nodes))
				for j, w := range d.Nodes {
					a[j] = vals[ec.nodes[w].a]
					b[j] = vals[ec.nodes[w].b]
				}
				out, err = ex.Gate(d, a, b)
			case DispatchLUT:
				in := make([]tfhe.LWECiphertext, len(d.Nodes))
				for j, w := range d.Nodes {
					in[j] = vals[ec.nodes[w].in]
				}
				out, err = ex.LUT(d, in)
			case DispatchMultiLUT:
				k := len(d.Tables)
				in := make([]tfhe.LWECiphertext, len(d.Nodes)/k)
				for g := range in {
					in[g] = vals[ec.nodes[d.Nodes[g*k]].in]
				}
				var groups [][]tfhe.LWECiphertext
				groups, err = ex.MultiLUT(d, in)
				if err == nil {
					out = make([]tfhe.LWECiphertext, 0, len(d.Nodes))
					for g, outs := range groups {
						if len(outs) != k {
							return nil, fmt.Errorf("sched: executor returned %d outputs for a %d-table group %d", len(outs), k, g)
						}
						out = append(out, outs...)
					}
				}
			default:
				err = fmt.Errorf("sched: unknown dispatch kind %d", d.Kind)
			}
			if err != nil {
				return nil, err
			}
			if len(out) != len(d.Nodes) {
				return nil, fmt.Errorf("sched: executor returned %d outputs for %d items", len(out), len(d.Nodes))
			}
			for j, w := range d.Nodes {
				vals[w] = out[j]
			}
		}
		if err := runLins(ec, s.linAt[l+1], vals, dim); err != nil {
			return nil, err
		}
	}
	outs := make([]tfhe.LWECiphertext, len(ec.outputs))
	for k, w := range ec.outputs {
		outs[k] = vals[w]
	}
	return outs, nil
}

// seqGate dispatches one gate on the sequential evaluator.
func seqGate(ev *tfhe.Evaluator, op engine.GateOp, a, b tfhe.LWECiphertext) (tfhe.LWECiphertext, error) {
	switch op {
	case engine.NAND:
		return ev.NAND(a, b), nil
	case engine.AND:
		return ev.AND(a, b), nil
	case engine.OR:
		return ev.OR(a, b), nil
	case engine.NOR:
		return ev.NOR(a, b), nil
	case engine.XOR:
		return ev.XOR(a, b), nil
	case engine.XNOR:
		return ev.XNOR(a, b), nil
	default:
		return tfhe.LWECiphertext{}, fmt.Errorf("sched: unknown sequential gate %d", int(op))
	}
}

// RunSequential evaluates the circuit node by node on one evaluator — the
// unscheduled reference path every schedule must match bitwise, and the
// backend of choice when no engine is available.
func RunSequential(c *Circuit, ev *tfhe.Evaluator, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if len(inputs) != len(c.inputs) {
		return nil, fmt.Errorf("sched: circuit has %d inputs, got %d", len(c.inputs), len(inputs))
	}
	vals := make([]tfhe.LWECiphertext, len(c.nodes))
	dim := -1
	for k, w := range c.inputs {
		vals[w] = inputs[k]
		dim = inputs[k].N()
	}
	for i, n := range c.nodes {
		switch n.kind {
		case kindInput:
			// already assigned
		case kindLin:
			v, err := evalLin(n, vals, dim)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		case kindGate:
			v, err := seqGate(ev, n.op, vals[n.a], vals[n.b])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		case kindLUT:
			table := n.table
			vals[i] = ev.EvalLUTKS(vals[n.in], n.space, func(m int) int { return table[m] })
		case kindMultiLUT:
			// The head sibling runs the whole group's shared rotation and
			// assigns every sibling; non-heads were filled by their head.
			// Circuits are parameter-agnostic, so the packing bound is
			// checked here — as an error, matching the engine-backed
			// Execute path for the same circuit.
			if n.mvIdx != 0 {
				continue
			}
			if err := ev.Params.ValidateMultiLUT(n.space, len(n.tables)); err != nil {
				return nil, err
			}
			outs := ev.EvalMultiLUTKS(vals[n.in], n.space, tfhe.TableFuncs(n.tables))
			for j, out := range outs {
				vals[i+j] = out
			}
		default:
			return nil, fmt.Errorf("sched: node %d has unknown kind %d", i, n.kind)
		}
	}
	outs := make([]tfhe.LWECiphertext, len(c.outputs))
	for k, w := range c.outputs {
		outs[k] = vals[w]
	}
	return outs, nil
}

// Runner executes schedules over the in-process streaming engine: every
// dispatch runs on Stream.
type Runner struct {
	// Batch is read only by benchmark/, which sets it beside Stream, and
	// ROADMAP item 2 deletes it; a Runner without Stream runs on it.
	Batch *engine.Engine
	// Stream is the engine every dispatch runs on.
	Stream *engine.StreamingEngine
}

// ops returns the engine every dispatch runs on: Stream if set, else
// Batch.
func (r *Runner) ops() (*engine.StreamingEngine, error) {
	switch {
	case r.Stream != nil:
		return r.Stream, nil
	case r.Batch != nil:
		return r.Batch, nil
	}
	return nil, fmt.Errorf("sched: runner has no engine")
}

// Gate implements Executor over the engine.
func (r *Runner) Gate(d Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	o, err := r.ops()
	if err != nil {
		return nil, err
	}
	return o.Gates(d.Ops, a, b)
}

// LUT implements Executor over the engine.
func (r *Runner) LUT(d Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	o, err := r.ops()
	if err != nil {
		return nil, err
	}
	return o.LUT(in, d.Space, func(m int) int { return d.Table[m] }), nil
}

// MultiLUT implements Executor over the engine: one blind rotation per
// group input, fanned out into the group's table outputs.
func (r *Runner) MultiLUT(d Dispatch, in []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	o, err := r.ops()
	if err != nil {
		return nil, err
	}
	return o.MultiLUT(in, d.Space, tfhe.TableFuncs(d.Tables))
}

// Run compiles the circuit under cfg and executes it — the one-call path
// for callers that don't reuse schedules.
func (r *Runner) Run(c *Circuit, cfg Config, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	s, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return Execute(c, s, inputs, r)
}

// RunSchedule executes an already-compiled schedule.
func (r *Runner) RunSchedule(c *Circuit, s *Schedule, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return Execute(c, s, inputs, r)
}
