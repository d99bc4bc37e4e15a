package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tfhe"
)

// Config tunes the engine.
type Config struct {
	// Workers is the number of worker goroutines (and private evaluators).
	// 0 means runtime.NumCPU().
	Workers int
}

// Engine executes batched TFHE operations over a pool of evaluators. Its
// methods are safe for concurrent use: batches are serialized internally
// while each batch fans out across the pool.
type Engine struct {
	mu      sync.Mutex
	params  tfhe.Params
	evals   []*tfhe.Evaluator
	signTV  tfhe.GLWECiphertext // shared read-only by every gate bootstrap
	batches int64               // completed batch calls, for diagnostics
}

// New builds an engine over the evaluation keys. The keys are shared
// read-only by every worker; only per-evaluator scratch is private.
func New(ek tfhe.EvaluationKeys, cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	e := &Engine{params: ek.Params, evals: make([]*tfhe.Evaluator, w)}
	for i := range e.evals {
		e.evals[i] = tfhe.NewEvaluator(ek)
	}
	e.signTV = e.evals[0].SignTestVector() // once, not once per gate
	return e
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return len(e.evals) }

// Params returns the parameter set the engine operates under.
func (e *Engine) Params() tfhe.Params { return e.params }

// Batches returns how many batch calls have completed.
func (e *Engine) Batches() int64 { return atomic.LoadInt64(&e.batches) }

// Counters returns the aggregated operation counters across all workers
// since construction (or the last ResetCounters).
func (e *Engine) Counters() tfhe.OpCounters {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total tfhe.OpCounters
	for _, ev := range e.evals {
		total.Add(ev.Counters)
	}
	return total
}

// ResetCounters zeroes every worker's counters.
func (e *Engine) ResetCounters() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ev := range e.evals {
		ev.Counters.Reset()
	}
}

// chunkFor picks how many items a worker claims at a time for a batch of
// n: ~4 chunks per worker, balancing claim overhead against tail latency.
func (e *Engine) chunkFor(n int) int {
	c := n / (4 * len(e.evals))
	if c < 1 {
		c = 1
	}
	return c
}

// run distributes items 0..n-1 over the worker pool. job must only touch
// item i and its evaluator. Callers hold e.mu, so one batch runs at a time
// and counter aggregation never races with in-flight work.
func (e *Engine) run(n int, job func(ev *tfhe.Evaluator, i int)) {
	if n == 0 {
		return
	}
	workers := len(e.evals)
	if workers > n {
		workers = n
	}
	chunk := e.chunkFor(n)
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ev *tfhe.Evaluator) {
			defer wg.Done()
			for {
				end := int(atomic.AddInt64(&cursor, int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					job(ev, i)
				}
			}
		}(e.evals[w])
	}
	wg.Wait()
	atomic.AddInt64(&e.batches, 1)
}

// checkDims panics (from the caller's goroutine, so it is recoverable and
// carries the item index) unless every ciphertext has mask length want.
// The underlying tfhe evaluator panics on dimension mismatch too, but from
// inside a worker goroutine — which would abort the whole process.
func checkDims(op string, cts []tfhe.LWECiphertext, want int) {
	for i, ct := range cts {
		if ct.N() != want {
			panic(fmt.Sprintf("engine: %s: ciphertext %d has LWE dimension %d, want %d", op, i, ct.N(), want))
		}
	}
}

// BatchBootstrap runs the programmable bootstrap (Algorithm 1) on every
// ciphertext against the shared test vector, returning big-key (k·N)
// outputs in input order. testVec is read-only and shared by all workers.
func (e *Engine) BatchBootstrap(cts []tfhe.LWECiphertext, testVec tfhe.GLWECiphertext) []tfhe.LWECiphertext {
	checkDims("BatchBootstrap", cts, e.params.SmallN)
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]tfhe.LWECiphertext, len(cts))
	e.run(len(cts), func(ev *tfhe.Evaluator, i int) {
		out[i] = ev.Bootstrap(cts[i], testVec)
	})
	return out
}

// BatchKeySwitch runs Algorithm 2 on every big-key ciphertext, returning
// dimension-n outputs in input order.
func (e *Engine) BatchKeySwitch(cts []tfhe.LWECiphertext) []tfhe.LWECiphertext {
	checkDims("BatchKeySwitch", cts, e.params.ExtractedN())
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]tfhe.LWECiphertext, len(cts))
	e.run(len(cts), func(ev *tfhe.Evaluator, i int) {
		out[i] = ev.KeySwitch(cts[i])
	})
	return out
}

// BatchEvalLUT applies the lookup table f (on {0..space-1}) to every
// ciphertext via PBS + keyswitch — the full §IV-C pipeline per item.
func (e *Engine) BatchEvalLUT(cts []tfhe.LWECiphertext, space int, f func(int) int) []tfhe.LWECiphertext {
	checkDims("BatchEvalLUT", cts, e.params.SmallN)
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]tfhe.LWECiphertext, len(cts))
	e.run(len(cts), func(ev *tfhe.Evaluator, i int) {
		out[i] = ev.EvalLUTKS(cts[i], space, f)
	})
	return out
}

// BatchMultiLUT applies k lookup tables to every ciphertext via one
// multi-value PBS per item — a single blind rotation fanned out into k
// extractions and keyswitches. out[i][j] is table j applied to cts[i], at
// dimension n, bitwise identical to the sequential EvalMultiLUTKS.
func (e *Engine) BatchMultiLUT(cts []tfhe.LWECiphertext, space int, fs []func(int) int) ([][]tfhe.LWECiphertext, error) {
	if err := e.params.ValidateMultiLUT(space, len(fs)); err != nil {
		return nil, err
	}
	checkDims("BatchMultiLUT", cts, e.params.SmallN)
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]tfhe.LWECiphertext, len(cts))
	e.run(len(cts), func(ev *tfhe.Evaluator, i int) {
		out[i] = ev.EvalMultiLUTKS(cts[i], space, fs)
	})
	return out, nil
}

// validateGateOperands rejects unknown ops and mismatched operand lengths
// or dimensions for the pairwise gate APIs (BatchGates, StreamGates)
// before any worker goroutine starts, so every failure surfaces as an
// error or a recoverable caller-side panic — never a panic inside a
// worker. b may be nil only when every op is the unary NOT.
func validateGateOperands(api string, params tfhe.Params, ops []GateOp, a, b []tfhe.LWECiphertext) error {
	if len(ops) != len(a) || (b != nil && len(b) != len(a)) {
		return fmt.Errorf("engine: %s: length mismatch: %d ops over %d and %d operands", api, len(ops), len(a), len(b))
	}
	for i, op := range ops {
		if op < 0 || int(op) >= len(gateNames) {
			return fmt.Errorf("engine: %s: item %d: unknown gate %d", api, i, int(op))
		}
		if op != NOT && b == nil {
			return fmt.Errorf("engine: %s: item %d: %s takes two operands, got no b", api, i, op)
		}
	}
	checkDims(api, a, params.SmallN)
	checkDims(api, b, params.SmallN)
	return nil
}

// gates is the flat engine's one gate core: item i runs the free linear
// stage of ops[i] over (a[i], b[i]) (gateInput, the op switch shared with
// the streaming pipeline), then the sign bootstrap and keyswitch every
// binary gate shares. Operands are already validated.
func (e *Engine) gates(ops []GateOp, a, b []tfhe.LWECiphertext) []tfhe.LWECiphertext {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]tfhe.LWECiphertext, len(ops))
	e.run(len(ops), func(ev *tfhe.Evaluator, i int) {
		in, done := gateInput(ev, ops[i], a, b, i)
		if !done {
			in = ev.KeySwitch(ev.Bootstrap(in, e.signTV))
		}
		out[i] = in
	})
	return out
}

// BatchGates applies one gate per item: out[i] = ops[i](a[i], b[i]). The
// ops may differ freely: every binary gate bootstraps against the same
// sign test vector, and the op only selects the linear stage in front of
// it. Where ops[i] is the unary NOT b[i] is unused; b may be nil when
// every op is.
func (e *Engine) BatchGates(ops []GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if err := validateGateOperands("BatchGates", e.params, ops, a, b); err != nil {
		return nil, err
	}
	return e.gates(ops, a, b), nil
}

// BatchGate applies one gate pairwise: out[i] = op(a[i], b[i]). For the
// unary NOT, b may be nil.
func (e *Engine) BatchGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return e.BatchGates(op.Repeat(len(a)), a, b)
}
