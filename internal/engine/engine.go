package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tfhe"
)

// Config tunes the engine.
type Config struct {
	// Workers is the number of worker goroutines (and private evaluators).
	// 0 means runtime.GOMAXPROCS(0): the CPUs the process may use; workers
	// beyond them would only be time-sliced.
	Workers int
}

// Engine executes the Ops vocabulary over a flat pool of evaluators: each
// worker takes an item through its whole PBS(+KS) end to end.
type Engine struct {
	Ops
}

// New builds an engine over the evaluation keys. The keys are shared
// read-only by every worker; only per-evaluator scratch is private.
func New(ek tfhe.EvaluationKeys, cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	evals := make([]*tfhe.Evaluator, w)
	for i := range evals {
		evals[i] = tfhe.NewEvaluator(ek)
	}
	e := &Engine{}
	e.Ops = newOps(ek.Params, evals, e.exec)
	return e
}

// exec distributes the items of one operation over the worker pool: each
// worker claims chunks from an atomic cursor (~4 chunks per worker,
// balancing claim overhead against tail latency) and takes a chunk through
// its whole PBS(+KS) as one tile, composing the tfhe stage primitives in
// the sequential evaluator's order.
func (e *Engine) exec(p op) []tfhe.LWECiphertext {
	out := make([]tfhe.LWECiphertext, p.n*p.k)
	workers := min(len(e.evals), p.n)
	chunk := max(p.n/(4*len(e.evals)), 1)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, ev := range e.evals[:workers] {
		wg.Add(1)
		go func(ev *tfhe.Evaluator) {
			defer wg.Done()
			// A tile is a run of consecutive items that bootstrap: it ends
			// with the chunk, or at an item prepare finishes (the free NOT).
			cts := make([]tfhe.LWECiphertext, 0, chunk)
			flush := func(next int) {
				if len(cts) == 0 {
					return
				}
				outs := p.slots(out, next-len(cts), len(cts))
				p.extractTile(ev, ev.BlindRotateBatch(cts, p.testVec), outs)
				if p.keyswitch {
					ev.KeySwitchTile(outs)
				}
				cts = cts[:0]
			}
			for {
				end := int(cursor.Add(int64(chunk)))
				hi := min(end, p.n)
				for i := end - chunk; i < hi; i++ {
					ct, done := p.prepare(ev, i)
					if done {
						flush(i)
						out[i*p.k] = ct
						continue
					}
					cts = append(cts, ct)
				}
				flush(hi)
				if end >= p.n {
					return
				}
			}
		}(ev)
	}
	wg.Wait()
	return out
}

// BatchGate applies one gate pairwise: out[i] = op(a[i], b[i]). For the
// unary NOT, b may be nil.
func (e *Engine) BatchGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return e.Gates(op.Repeat(len(a)), a, b)
}
