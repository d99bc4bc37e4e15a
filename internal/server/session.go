package server

import (
	"container/list"
	"fmt"
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

// Every request is a circuit that sched.Execute runs on the session, so
// the two executor methods below are the session's only engine calls.
// Each counts one engine call and runs it through the embedded Runner.
// Concurrent requests and dispatches are separate engine operations; the
// worker pool tiles them side by side.

// Gate implements sched.Executor: d.Ops[i] over (a[i], b[i]).
func (s *session) Gate(d sched.Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	s.count(len(a))
	return s.Runner.Gate(d, a, b)
}

// LUT implements sched.Executor: one blind rotation per input serves all
// of d.Tables.
func (s *session) LUT(d sched.Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	s.count(len(in))
	return s.Runner.LUT(d, in)
}

// count records one engine call over n input ciphertexts.
func (s *session) count(n int) {
	s.streams.Add(1)
	s.items.Add(int64(n))
}

// compile compiles a circuit for this session's parameter set, which
// applies the one noise rule once, and holds each dispatch of the plan to
// the batch bound like a batch of its own. Every engine call Execute makes
// is a subset of one plan dispatch, so the bound holds for each of them.
// optimize switches the optimizer on.
func (s *session) compile(circ *sched.Circuit, optimize bool, maxBatch int) (*sched.Schedule, error) {
	var cfg sched.Config
	if optimize {
		cfg.Opt = sched.OptAll()
	}
	cfg.Opt.Params = s.params
	schedule, err := sched.Compile(circ, cfg)
	if err != nil {
		return nil, err
	}
	for l, lvl := range schedule.Levels() {
		for _, d := range lvl.Dispatches {
			if len(d.Nodes) > maxBatch {
				return nil, fmt.Errorf("%w: a dispatch of %d at plan level %d > %d", ErrBatchTooLarge, len(d.Nodes), l+1, maxBatch)
			}
		}
	}
	return schedule, nil
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
