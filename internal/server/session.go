package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// session owns one client's evaluation keys, streaming engine, and
// metrics. In-flight requests hold a *session directly, and a reference to
// the memory its keys are views of, so an LRU-evicted, replaced or
// deleted session finishes its outstanding work before that memory goes;
// only new lookups see the eviction.
type session struct {
	id     string
	params tfhe.Params
	eng    *engine.StreamingEngine
	key    *StoredKey    // the memory eng's keys alias; nil when the caller owns them
	elem   *list.Element // position in the server's LRU list

	// slots is the backpressure bound: one token per queued or in-flight
	// request, a circuit's whole run included. Acquiring blocks when the
	// session is saturated, for at most queueTimeout before ErrOverloaded
	// (the package constant; a field so that a test can shorten it).
	slots        chan struct{}
	queueTimeout time.Duration

	// groups holds the open coalescing group per compatibility key. A
	// group accumulates requests while a leader waits for the engine; see
	// submit.
	mu          sync.Mutex
	groups      map[string]*group
	execMu      sync.Mutex // serializes engine streams; the coalescing window
	maxCoalesce int

	requests  atomic.Int64
	items     atomic.Int64
	streams   atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
}

// newSession builds a session and its streaming engine, a handle on the
// keys: its operations run on the process's one worker pool, beside the
// other sessions'. The session takes over the caller's reference to key,
// the memory ek's slabs alias (nil when they alias none).
func newSession(id string, ek tfhe.EvaluationKeys, key *StoredKey, cfg Config) *session {
	return &session{
		id:           id,
		params:       ek.Params,
		eng:          engine.NewStreaming(ek, engine.StreamConfig{}),
		key:          key,
		slots:        make(chan struct{}, cfg.MaxPending),
		queueTimeout: queueTimeout,
		groups:       make(map[string]*group),
		maxCoalesce:  cfg.MaxCoalesce,
	}
}

// hold takes a reference to the session's key memory for one more user
// of the session: a request, beside the warm tier's reference.
func (s *session) hold() { s.key.hold() }

// release gives up one user's reference; the last one frees the key
// memory, after which the session must not run.
func (s *session) release() { s.key.Release() }

// group is one group-commit batch: the concatenated operands (and, for
// gates, per-item ops) of every request that joined, and the waiters to
// scatter the results back to.
type group struct {
	ops     []engine.GateOp
	a, b    []tfhe.LWECiphertext
	waiters []*waiter
}

// waiter is one request's slice of a group.
type waiter struct {
	off, n int
	ch     chan groupResult
}

// groupResult is what a leader delivers to each waiter.
type groupResult struct {
	out []tfhe.LWECiphertext
	err error
}

// submit runs (a, b) through the session's engine under the coalescing
// protocol. Requests with equal keys that arrive while the engine is busy
// are merged into one stream; run receives the sealed group (concatenated
// operands, and the per-item ops of gate requests: ops is nil for every
// other kind) and must return outPerIn outputs per input, input-major (1
// for gates and LUTs, the table count for multi-value LUTs — equal keys
// imply equal fan-out). The caller's slice of the stream output is
// returned in request order.
//
// The protocol is group-commit: the first request to open a group for a
// key is its leader. The leader queues for the engine (execMu); while it
// waits, followers append their operands to the open group. When the
// leader acquires the engine it seals the group (removing it from the
// map, so later arrivals open a fresh group behind it), runs one stream
// over the whole batch, and scatters results to every waiter.
func (s *session) submit(key string, ops []engine.GateOp, a, b []tfhe.LWECiphertext, outPerIn int, run func(g *group) ([]tfhe.LWECiphertext, error)) ([]tfhe.LWECiphertext, error) {
	w := &waiter{n: len(a), ch: make(chan groupResult, 1)}
	s.mu.Lock()
	g, open := s.groups[key]
	leader := false
	if !open || len(g.a)+len(a) > s.maxCoalesce {
		// No open group (or it is full): open a new one and lead it. A
		// full group stays owned by its own leader; replacing the map
		// entry just closes it to further joiners.
		g = &group{}
		s.groups[key] = g
		leader = true
	}
	w.off = len(g.a)
	g.ops = append(g.ops, ops...)
	g.a = append(g.a, a...)
	g.b = append(g.b, b...)
	g.waiters = append(g.waiters, w)
	s.mu.Unlock()

	if leader {
		s.execMu.Lock()
		s.mu.Lock()
		// Seal: only remove the map entry if it is still ours — a
		// follower may have already replaced a full group. Either way
		// nothing appends to g from here on.
		if s.groups[key] == g {
			delete(s.groups, key)
		}
		s.mu.Unlock()

		out, err := run(g)
		s.execMu.Unlock()

		s.streams.Add(1)
		if len(g.waiters) > 1 {
			s.coalesced.Add(int64(len(g.waiters)))
		}
		if err == nil && len(out) != len(g.a)*outPerIn {
			err = fmt.Errorf("server: engine returned %d outputs for %d inputs (want %d per input)", len(out), len(g.a), outPerIn)
		}
		for _, wt := range g.waiters {
			if err != nil {
				wt.ch <- groupResult{err: err}
				continue
			}
			lo, hi := wt.off*outPerIn, (wt.off+wt.n)*outPerIn
			wt.ch <- groupResult{out: out[lo:hi:hi]}
		}
	}

	res := <-w.ch
	if res.err != nil {
		return nil, res.err
	}
	s.requests.Add(1)
	s.items.Add(int64(w.n))
	return res.out, nil
}

// acquireSlot takes one backpressure token for a request, waiting up to
// the session's queue timeout (fast path first, so an idle session never
// arms a timer). A saturated queue past the timeout means the session is
// overloaded: refuse so the client can back off, instead of letting
// waiters pile up without bound. A circuit is one request: its
// dispatches share its token.
func (s *session) acquireSlot() error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(s.queueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-t.C:
		s.rejected.Add(1)
		return ErrOverloaded
	}
}

// releaseSlot gives back a request's backpressure token.
func (s *session) releaseSlot() { <-s.slots }

// The session is the sched.Executor of its own circuits, and the typed
// batch methods on Server validate and then call the same three methods:
// each kind's engine call is spelled once, and its coalescing key is the
// scheduler's grouping key (sched.Dispatch.Key), so circuit dispatches and
// standalone batches share streams whenever the keys match. A session runs
// one engine stream at a time, and the scheduler hands it a circuit's
// dispatches one at a time, each with every ready node of its key.

// Gate implements sched.Executor: d.Ops[i] over (a[i], b[i]). Binary
// gates coalesce under one key whatever their ops, since they share the
// sign test vector. A NOT batch (b nil, uniform by validateGate) keeps its
// own key: it carries no b to concatenate and costs no PBS.
func (s *session) Gate(d sched.Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	key := d.Key()
	if b == nil {
		key = "not"
	}
	return s.submit(key, d.Ops, a, b, 1, func(g *group) ([]tfhe.LWECiphertext, error) {
		return s.eng.Gates(g.ops, g.a, g.b)
	})
}

// LUT implements sched.Executor. Streams merge only when the whole table
// is identical.
func (s *session) LUT(d sched.Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	d.Kind = sched.DispatchLUT // the Server's batch methods leave it unset
	return s.submit(d.Key(), nil, in, nil, 1, func(g *group) ([]tfhe.LWECiphertext, error) {
		return s.eng.LUT(g.a, d.Space, func(m int) int { return d.Table[m] })
	})
}

// MultiLUT implements sched.Executor: one blind rotation per input serves
// all of d.Tables. Streams merge only when the whole table list is
// identical, so every request of a group shares one packed test vector
// and fan-out k. The stream's per-input output groups are flattened
// input-major for submit to scatter, then regrouped for the caller.
func (s *session) MultiLUT(d sched.Dispatch, in []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	k := len(d.Tables)
	d.Kind = sched.DispatchMultiLUT
	flat, err := s.submit(d.Key(), nil, in, nil, k, func(g *group) ([]tfhe.LWECiphertext, error) {
		groups, err := s.eng.MultiLUT(g.a, d.Space, tfhe.TableFuncs(d.Tables))
		if err != nil {
			return nil, err
		}
		flat := make([]tfhe.LWECiphertext, 0, len(g.a)*k)
		for _, outs := range groups {
			flat = append(flat, outs...)
		}
		return flat, nil
	})
	if err != nil {
		return nil, err
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

// validateGate rejects malformed gate requests before they can join a
// coalescing group (one bad request must never poison a shared stream).
func (s *session) validateGate(op engine.GateOp, a, b []tfhe.LWECiphertext, maxBatch int) error {
	fail := func(err error) error {
		s.rejected.Add(1)
		return err
	}
	if op < engine.NAND || op > engine.NOT {
		return fail(fmt.Errorf("server: unknown gate op %d", int(op)))
	}
	if len(a) > maxBatch {
		return fail(fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(a), maxBatch))
	}
	if op == engine.NOT {
		if b != nil {
			return fail(fmt.Errorf("server: NOT takes one operand list, got a second of length %d", len(b)))
		}
	} else if len(a) != len(b) {
		return fail(fmt.Errorf("server: operand length mismatch: %d vs %d", len(a), len(b)))
	}
	if err := s.checkDims(a); err != nil {
		return fail(err)
	}
	if op != engine.NOT {
		if err := s.checkDims(b); err != nil {
			return fail(err)
		}
	}
	return nil
}

// validateLUT rejects malformed LUT requests before they can join a
// coalescing group.
func (s *session) validateLUT(cts []tfhe.LWECiphertext, space int, table []int, maxBatch int) error {
	fail := func(err error) error {
		s.rejected.Add(1)
		return err
	}
	if len(cts) > maxBatch {
		return fail(fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(cts), maxBatch))
	}
	if space < 2 || space > s.params.N {
		return fail(fmt.Errorf("server: LUT space %d out of range [2, %d]", space, s.params.N))
	}
	if len(table) != space {
		return fail(fmt.Errorf("server: LUT table has %d entries, want %d", len(table), space))
	}
	for i, v := range table {
		if v < 0 || v >= space {
			return fail(fmt.Errorf("server: LUT entry %d = %d outside {0..%d}", i, v, space-1))
		}
	}
	if err := s.checkDims(cts); err != nil {
		return fail(err)
	}
	return nil
}

// validateMultiLUT rejects malformed multi-value LUT requests before they
// can join a coalescing group. The response carries k outputs per input,
// so the amplified total — not the input count — is held to the batch
// bound.
func (s *session) validateMultiLUT(cts []tfhe.LWECiphertext, space int, tables [][]int, maxBatch int) error {
	fail := func(err error) error {
		s.rejected.Add(1)
		return err
	}
	k := len(tables)
	if err := s.params.ValidateMultiLUT(space, k); err != nil {
		return fail(err)
	}
	if len(cts)*k > maxBatch {
		return fail(fmt.Errorf("%w: %d inputs × %d tables > %d", ErrBatchTooLarge, len(cts), k, maxBatch))
	}
	for ti, table := range tables {
		if len(table) != space {
			return fail(fmt.Errorf("server: multi-value table %d has %d entries, want %d", ti, len(table), space))
		}
		for i, v := range table {
			if v < 0 || v >= space {
				return fail(fmt.Errorf("server: multi-value table %d entry %d = %d outside {0..%d}", ti, i, v, space-1))
			}
		}
	}
	if err := s.checkDims(cts); err != nil {
		return fail(err)
	}
	return nil
}

// validateCircuit rejects malformed circuit-batch requests and compiles
// the accepted ones. The circuit is rebuilt through the sched builder (so
// references, ops, and tables are fully validated against untrusted
// input), then each compiled dispatch is bounded like a standalone batch.
// Node and dispatch bounds apply to the incoming specs and to the
// schedule that actually executes (see compile for optimize).
func (s *session) validateCircuit(specs []sched.NodeSpec, outputs []int, inputs []tfhe.LWECiphertext, cfg Config, optimize bool) (*sched.Circuit, *sched.Schedule, error) {
	fail := func(err error) (*sched.Circuit, *sched.Schedule, error) {
		s.rejected.Add(1)
		return nil, nil, err
	}
	if len(specs) > maxCircuitNodes {
		return fail(fmt.Errorf("%w: %d nodes > %d", ErrBatchTooLarge, len(specs), maxCircuitNodes))
	}
	// Outputs amplify the response (each entry re-encodes a ciphertext),
	// so they are bounded like nodes — otherwise a tiny circuit listing
	// one wire millions of times would balloon server memory.
	if len(outputs) > maxCircuitNodes {
		return fail(fmt.Errorf("%w: %d outputs > %d", ErrBatchTooLarge, len(outputs), maxCircuitNodes))
	}
	if len(inputs) > cfg.MaxBatch {
		return fail(fmt.Errorf("%w: %d inputs > %d", ErrBatchTooLarge, len(inputs), cfg.MaxBatch))
	}
	circ, err := sched.FromSpecs(specs, outputs)
	if err != nil {
		return fail(fmt.Errorf("server: bad circuit: %w", err))
	}
	if circ.NumInputs() != len(inputs) {
		return fail(fmt.Errorf("server: circuit has %d inputs, request carries %d", circ.NumInputs(), len(inputs)))
	}
	if err := s.checkDims(inputs); err != nil {
		return fail(err)
	}
	schedule, err := s.compile(circ, optimize)
	if err != nil {
		return fail(fmt.Errorf("server: bad circuit: %w", err))
	}
	for _, lvl := range schedule.Levels() {
		for _, d := range lvl.Dispatches {
			if len(d.Nodes) > cfg.MaxBatch {
				return fail(fmt.Errorf("%w: level dispatch of %d > %d", ErrBatchTooLarge, len(d.Nodes), cfg.MaxBatch))
			}
			if d.Kind == sched.DispatchLUT && d.Space > s.params.N {
				return fail(fmt.Errorf("server: LUT space %d out of range [2, %d]", d.Space, s.params.N))
			}
			if d.Kind == sched.DispatchMultiLUT {
				if err := s.params.ValidateMultiLUT(d.Space, len(d.Tables)); err != nil {
					return fail(err)
				}
			}
		}
	}
	return circ, schedule, nil
}

// compile compiles a circuit for this session. optimize enables the
// full optimizer pass pipeline, with the multi-value budget bound to the
// session's parameter set so the rewrite never packs past space·k ≤ N.
func (s *session) compile(circ *sched.Circuit, optimize bool) (*sched.Schedule, error) {
	var cfg sched.Config
	if optimize {
		cfg.Opt = sched.OptAll()
		cfg.Opt.MultiValueBudget = s.params.N
	}
	return sched.Compile(circ, cfg)
}

// checkDims verifies every ciphertext has the session's LWE dimension.
func (s *session) checkDims(cts []tfhe.LWECiphertext) error {
	for i, ct := range cts {
		if ct.N() != s.params.SmallN {
			return fmt.Errorf("server: ciphertext %d has LWE dimension %d, want n=%d", i, ct.N(), s.params.SmallN)
		}
	}
	return nil
}

// statsSnapshot captures the session's metrics. The engine's counters sit
// behind a lock no operation holds while it runs, so this never blocks
// behind an in-flight stream.
func (s *session) statsSnapshot() SessionStats {
	return SessionStats{
		ID:        s.id,
		Params:    s.params.Name,
		Requests:  s.requests.Load(),
		Items:     s.items.Load(),
		Streams:   s.streams.Load(),
		Coalesced: s.coalesced.Load(),
		Rejected:  s.rejected.Load(),
		Pending:   len(s.slots),
		Counters:  s.eng.Counters(),
	}
}
