package sched

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/tfhe"
)

// Executor runs one dispatch worth of PBS work, every item PBS →
// keyswitch. Implementations must return one output per node of the
// dispatch, in Dispatch.Nodes order, computing the same per-item
// operation as the sequential evaluator, under the parameter set Params
// reports. Execute calls an Executor from a goroutine of its own, one
// dispatch at a time, unless it is a Runner or embeds one: those take
// several at once.
type Executor interface {
	// Gate evaluates out[i] = d.Ops[i](a[i], b[i]).
	Gate(d Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)
	// LUT applies the k = len(d.Tables) tables (message space d.Space) to
	// every ciphertext with one blind rotation each: out[g·k+i] is table
	// i applied to in[g]. With one table it is the plain lookup.
	LUT(d Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)
	// Params returns the parameter set the executor computes under, the
	// one Execute checks the schedule's noise budget against.
	Params() tfhe.Params
}

// concurrent is implemented by the executors that run concurrent calls
// at once, each on the CPUs Execute claimed for it: the Runner, and every
// type that embeds one, which the embedding gives the marker (the gate
// service's session). Any other executor may assume one call at a time,
// as a tracer that nests each call's span in the one open before it does.
type concurrent interface{ concurrentCalls() }

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

// Execute runs a compiled schedule over the inputs. It dispatches by
// readiness within the schedule's plan: whenever the process's worker pool
// has a free CPU (engine.Claim), it issues one dispatch, the ready PBS
// nodes of the highest rank that share one Dispatch.Key, in build order —
// a subset of one dispatch of Levels. Each completion unblocks the nodes
// that wait on it, and a free linear node folds the moment its operands
// resolve. A dispatch issued while other ready work could take the
// remaining CPUs runs on one of them, as one tile; one that is the only
// ready work may split across every free CPU it can fill. With nothing in
// flight, Execute takes a CPU even when none is free, as an operation
// alone does. An executor that neither is nor embeds a Runner gets one
// dispatch at a time instead, picked as the Runner's on one CPU, and runs
// it by the pool's own tile rule.
//
// Before it issues anything, Execute applies the one noise rule
// (Schedule.Check) under the executor's parameter set, and returns its
// refusal, unless Compile admitted the schedule under that very set.
// Wires resolve against the schedule's (possibly optimizer-rewritten)
// circuit; c must be the source circuit the schedule was compiled from.
// Outputs are returned in Output declaration order. Output ciphertexts
// are fresh except when an output wire is itself an input wire (or, in
// optimized schedules, when outputs merged into one node). When a
// dispatch fails, Execute issues no more and returns once every dispatch
// in flight has: the first error, or, if a dispatch panicked, that panic,
// raised again in the caller's goroutine.
func Execute(c *Circuit, s *Schedule, inputs []tfhe.LWECiphertext, ex Executor) ([]tfhe.LWECiphertext, error) {
	if s.nodes != len(c.nodes) {
		return nil, fmt.Errorf("sched: schedule was compiled from a %d-node circuit, got %d nodes", s.nodes, len(c.nodes))
	}
	ec := s.circ
	if len(inputs) != len(ec.inputs) {
		return nil, fmt.Errorf("sched: circuit has %d inputs, got %d", len(ec.inputs), len(inputs))
	}
	if p := ex.Params(); s.admitted.N == 0 || s.admitted != p {
		if err := s.Check(p); err != nil {
			return nil, err
		}
	}
	r := &run{s: s, c: ec, ex: ex, dim: -1,
		vals: make([]tfhe.LWECiphertext, len(ec.nodes)),
		wait: slices.Clone(s.deps),
		done: make(chan finished)}
	_, many := ex.(concurrent)
	r.serial = !many
	defer r.drain()
	for k, w := range ec.inputs {
		r.vals[w] = inputs[k]
		r.dim = inputs[k].N()
	}
	for _, w := range ec.inputs {
		r.resolve(w)
	}
	for i, n := range ec.nodes {
		if n.kind == kindLin && s.deps[i] == 0 {
			r.fold(Wire(i))
		}
	}
	for {
		for r.err == nil && r.panicked == nil && len(r.ready) > 0 && (r.inflight == 0 || !r.serial) && r.issue() {
		}
		if r.inflight == 0 {
			break
		}
		r.complete(<-r.done)
	}
	if r.panicked != nil {
		panic(r.panicked)
	}
	if r.err != nil {
		return nil, r.err
	}
	outs := make([]tfhe.LWECiphertext, len(ec.outputs))
	for k, w := range ec.outputs {
		outs[k] = r.vals[w]
	}
	return outs, nil
}

// run is one Execute's state. Only Execute's goroutine touches it; the
// dispatches it issues get their operands gathered and hand back their
// outputs on done.
type run struct {
	s  *Schedule
	c  *Circuit
	ex Executor

	vals     []tfhe.LWECiphertext // resolved wires
	wait     []int32              // operand references still unresolved, per node
	ready    []Wire               // units whose operands have all resolved
	dim      int                  // the inputs' LWE dimension, -1 without inputs
	inflight int
	serial   bool // the executor takes one dispatch at a time
	done     chan finished

	err      error // the first failure: an error,
	panicked any   // or a dispatch's panic
}

// finished is one dispatch's outcome.
type finished struct {
	d        Dispatch
	out      []tfhe.LWECiphertext
	err      error
	panicked any
}

// resolve marks wire w resolved: every node waiting on its last operand
// becomes ready, or, if it is linear, folds at once.
func (r *run) resolve(w Wire) {
	for _, u := range r.s.users[r.s.userAt[w]:r.s.userAt[w+1]] {
		if r.wait[u]--; r.wait[u] > 0 {
			continue
		}
		if r.c.nodes[u].kind == kindLin {
			r.fold(Wire(u))
		} else {
			r.ready = append(r.ready, Wire(u))
		}
	}
}

// fold evaluates the linear node at w and resolves it.
func (r *run) fold(w Wire) {
	v, err := evalLin(r.c.nodes[w], r.vals, r.dim)
	if err != nil {
		r.fail(err, nil)
		return
	}
	r.vals[w] = v
	r.resolve(w)
}

// fail records the first error and the first panic.
func (r *run) fail(err error, panicked any) {
	if panicked != nil && r.panicked == nil {
		r.panicked = panicked
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// issue claims CPUs for the next dispatch, the ready units of the highest
// rank that share the key of the first such in build order, and starts
// it. It reports false, issuing nothing, when no CPU is free. Every
// executor gets the same pick, so each dispatch is a subset of one plan
// dispatch, the bound a caller checks Levels against.
func (r *run) issue() bool {
	top, first := int32(-1), Wire(-1)
	for _, w := range r.ready {
		if rk := r.s.rank[w]; rk > top || (rk == top && w < first) {
			top, first = rk, w
		}
	}
	key := r.s.key[first]
	next := func(w Wire) bool { return r.s.key[w] == key && r.s.rank[w] == top }
	n := 0
	for _, w := range r.ready {
		if next(w) {
			n++
		}
	}
	// One tile while other ready work could take the CPUs left; else
	// every free CPU the dispatch can fill. A serial executor claims
	// none: its one dispatch runs by the pool's own tile rule.
	cpus := 0
	if !r.serial {
		least, most := 0, n
		if n < len(r.ready) {
			most = 1
		}
		if r.inflight == 0 {
			least = 1
		}
		if cpus = engine.Claim(least, most); cpus == 0 {
			return false
		}
	}
	units, rest := make([]Wire, 0, n), r.ready[:0]
	for _, w := range r.ready {
		if next(w) {
			units = append(units, w)
		} else {
			rest = append(rest, w)
		}
	}
	r.ready = rest
	slices.Sort(units)

	d := r.c.nodes[first].dispatch()
	d.cpus = cpus
	d.Nodes = make([]Wire, 0, n*max(1, len(d.Tables)))
	a := make([]tfhe.LWECiphertext, len(units))
	var b []tfhe.LWECiphertext
	if d.Kind == DispatchGate {
		b = make([]tfhe.LWECiphertext, len(units))
	}
	for j, w := range units {
		nd := r.c.nodes[w]
		d.add(r.c, w)
		if d.Kind == DispatchGate {
			a[j], b[j] = r.vals[nd.a], r.vals[nd.b]
		} else {
			a[j] = r.vals[nd.in]
		}
	}
	r.inflight++
	go r.dispatch(d, a, b)
	return true
}

// dispatch runs d on its operands (b only for gates) in a goroutine of
// its own, through the executor method of its kind, and hands back the
// outcome, a panic too.
func (r *run) dispatch(d Dispatch, a, b []tfhe.LWECiphertext) {
	f := finished{d: d}
	defer func() {
		f.panicked = recover()
		r.done <- f
	}()
	if d.Kind == DispatchGate {
		f.out, f.err = r.ex.Gate(d, a, b)
	} else {
		f.out, f.err = r.ex.LUT(d, a)
	}
}

// complete takes in a finished dispatch: its CPUs go back to the pool, and
// its outputs resolve their wires. Its CPUs are free only from here on, so
// every dispatch issued on them sees what this one unblocked.
func (r *run) complete(f finished) {
	r.inflight--
	engine.Unclaim(f.d.cpus)
	if f.err == nil && f.panicked == nil && len(f.out) != len(f.d.Nodes) {
		f.err = fmt.Errorf("sched: executor returned %d outputs for %d items", len(f.out), len(f.d.Nodes))
	}
	if f.err != nil || f.panicked != nil {
		r.fail(f.err, f.panicked)
		return
	}
	for j, w := range f.d.Nodes {
		r.vals[w] = f.out[j]
	}
	for _, w := range f.d.Nodes {
		r.resolve(w)
	}
}

// drain waits for the dispatches still in flight, so that none outlives
// Execute, even one that panics in its own goroutine.
func (r *run) drain() {
	for ; r.inflight > 0; r.inflight-- {
		engine.Unclaim((<-r.done).d.cpus)
	}
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
// backend of choice when no engine is available. Like Execute, it first
// applies the one noise rule under the evaluator's parameter set.
func RunSequential(c *Circuit, ev *tfhe.Evaluator, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if len(inputs) != len(c.inputs) {
		return nil, fmt.Errorf("sched: circuit has %d inputs, got %d", len(c.inputs), len(inputs))
	}
	if err := noise.Check(ev.Params, c.budget()...); err != nil {
		return nil, err
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
			// The head sibling runs the whole group's shared rotation and
			// assigns every sibling; non-heads were filled by their head.
			if n.mvIdx != 0 {
				continue
			}
			outs := ev.EvalLUTKS(vals[n.in], n.space, tfhe.TableFuncs(n.tables))
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
// dispatch runs on Stream, on the CPUs Execute claimed for it, several at
// once.
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

// Params implements Executor: the parameter set of the engine every
// dispatch runs on; the zero Params, which noise.Check refuses, when the
// runner has none.
func (r *Runner) Params() tfhe.Params {
	o, err := r.ops()
	if err != nil {
		return tfhe.Params{}
	}
	return o.Params()
}

// concurrentCalls marks the Runner as concurrent: each dispatch is its
// own engine operation, and the engine takes concurrent ones.
func (r *Runner) concurrentCalls() {}

// Gate implements Executor over the engine.
func (r *Runner) Gate(d Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	o, err := r.ops()
	if err != nil {
		return nil, err
	}
	return d.on(o).Gates(d.Ops, a, b)
}

// LUT implements Executor over the engine: one blind rotation per group
// input, fanned out into the group's table outputs.
func (r *Runner) LUT(d Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	o, err := r.ops()
	if err != nil {
		return nil, err
	}
	return d.on(o).LUT(in, d.Space, tfhe.TableFuncs(d.Tables))
}

// Run compiles the circuit under cfg and executes it — the one-call path
// for callers that don't reuse schedules. It compiles for the runner's
// parameter set when cfg.Opt has no Params.
func (r *Runner) Run(c *Circuit, cfg Config, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if cfg.Opt.Params.N == 0 {
		cfg.Opt.Params = r.Params()
	}
	s, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return Execute(c, s, inputs, r)
}
