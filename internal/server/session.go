package server

import (
	"container/list"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// session owns one client's evaluation keys, streaming engine, and
// metrics. In-flight requests hold a *session directly, and a reference to
// the memory its keys are views of, so an LRU-evicted, replaced or
// deleted session finishes its outstanding work before that memory goes;
// only new lookups see the eviction.
type session struct {
	// Runner runs every engine call on the session's streaming engine
	// (Runner.Stream). Embedding it makes the session the sched.Executor
	// of its own circuits the way the Runner is: sched.Execute hands it
	// several dispatches at once, each on the CPUs it claimed from the
	// worker pool.
	sched.Runner
	id     string
	params tfhe.Params
	key    *StoredKey    // the memory the engine's keys alias; nil when the caller owns them
	elem   *list.Element // position in the server's LRU list

	// slots is the backpressure bound: one token per queued or in-flight
	// request, a circuit's whole run included. Acquiring blocks when the
	// session is saturated, for at most queueTimeout before ErrOverloaded
	// (the package constant; a field so that a test can shorten it).
	slots        chan struct{}
	queueTimeout time.Duration

	requests atomic.Int64
	items    atomic.Int64
	streams  atomic.Int64
	rejected atomic.Int64
}

// newSession builds a session and its streaming engine, a handle on the
// keys: its operations run on the process's one worker pool, beside the
// other sessions'. The session takes over the caller's reference to key,
// the memory ek's slabs alias (nil when they alias none).
func newSession(id string, ek tfhe.EvaluationKeys, key *StoredKey, cfg Config) *session {
	return &session{
		Runner:       sched.Runner{Stream: engine.NewStreaming(ek, engine.StreamConfig{})},
		id:           id,
		params:       ek.Params,
		key:          key,
		slots:        make(chan struct{}, cfg.MaxPending),
		queueTimeout: queueTimeout,
	}
}

// hold takes a reference to the session's key memory for one more user
// of the session: a request, beside the warm tier's reference.
func (s *session) hold() { s.key.hold() }

// release gives up one user's reference; the last one frees the key
// memory, after which the session must not run.
func (s *session) release() { s.key.Release() }

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

// releaseSlot gives back a request's backpressure token and counts the
// request as run.
func (s *session) releaseSlot() {
	<-s.slots
	s.requests.Add(1)
}

// The typed batch methods on Server validate and then call the same three
// methods the scheduler calls for a circuit's dispatches. Each counts one
// engine call and runs it through the embedded Runner, so each kind's
// engine call is written once. Concurrent requests and dispatches are
// separate engine operations; the worker pool tiles them side by side.

// Gate implements sched.Executor: d.Ops[i] over (a[i], b[i]); b is nil
// for a batch of NOTs.
func (s *session) Gate(d sched.Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	s.count(len(a))
	return s.Runner.Gate(d, a, b)
}

// LUT implements sched.Executor: d.Table over every input.
func (s *session) LUT(d sched.Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	s.count(len(in))
	return s.Runner.LUT(d, in)
}

// MultiLUT implements sched.Executor: one blind rotation per input serves
// all of d.Tables.
func (s *session) MultiLUT(d sched.Dispatch, in []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	s.count(len(in))
	return s.Runner.MultiLUT(d, in)
}

// count records one engine call over n input ciphertexts.
func (s *session) count(n int) {
	s.streams.Add(1)
	s.items.Add(int64(n))
}

// validateGate rejects malformed gate requests before they take a
// backpressure token or reach the engine, whose checks panic.
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

// validateLUT rejects malformed LUT requests before they take a
// backpressure token or reach the engine.
func (s *session) validateLUT(cts []tfhe.LWECiphertext, space int, table []int, maxBatch int) error {
	fail := func(err error) error {
		s.rejected.Add(1)
		return err
	}
	if len(cts) > maxBatch {
		return fail(fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(cts), maxBatch))
	}
	// A request cannot show its inputs' history: it is held to fresh ones.
	if err := noise.Check(s.params, noise.PBS{Node: -1, In: noise.FreshLoad, Space: space, K: 1}); err != nil {
		return fail(err)
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
// take a backpressure token or reach the engine. The response carries k outputs per input,
// so the amplified total — not the input count — is held to the batch
// bound.
func (s *session) validateMultiLUT(cts []tfhe.LWECiphertext, space int, tables [][]int, maxBatch int) error {
	fail := func(err error) error {
		s.rejected.Add(1)
		return err
	}
	k := len(tables)
	if err := noise.Check(s.params, noise.PBS{Node: -1, In: noise.FreshLoad, Space: space, K: k}); err != nil {
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
// input), compiled for the session's parameter set, which applies the
// one noise rule to it, and then each compiled dispatch is bounded like a
// standalone batch.
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
		return fail(err)
	}
	for _, lvl := range schedule.Levels() {
		for _, d := range lvl.Dispatches {
			if len(d.Nodes) > cfg.MaxBatch {
				return fail(fmt.Errorf("%w: level dispatch of %d > %d", ErrBatchTooLarge, len(d.Nodes), cfg.MaxBatch))
			}
		}
	}
	return circ, schedule, nil
}

// compile compiles a circuit for this session's parameter set, which
// applies the one noise rule once. optimize switches the optimizer on.
func (s *session) compile(circ *sched.Circuit, optimize bool) (*sched.Schedule, error) {
	var cfg sched.Config
	if optimize {
		cfg.Opt = sched.OptAll()
	}
	cfg.Opt.Params = s.params
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
		ID:       s.id,
		Params:   s.params.Name,
		Requests: s.requests.Load(),
		Items:    s.items.Load(),
		Streams:  s.streams.Load(),
		Rejected: s.rejected.Load(),
		Pending:  len(s.slots),
		Counters: s.Stream.Counters(),
	}
}
