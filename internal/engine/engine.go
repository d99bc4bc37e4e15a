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
	// 0 means runtime.NumCPU().
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
		w = runtime.NumCPU()
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
// balancing claim overhead against tail latency) and composes the tfhe
// stage primitives per item, in the sequential evaluator's order.
func (e *Engine) exec(p op) [][]tfhe.LWECiphertext {
	out := make([][]tfhe.LWECiphertext, p.n)
	workers := min(len(e.evals), p.n)
	chunk := max(p.n/(4*len(e.evals)), 1)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, ev := range e.evals[:workers] {
		wg.Add(1)
		go func(ev *tfhe.Evaluator) {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(chunk)))
				for i := end - chunk; i < min(end, p.n); i++ {
					out[i] = p.item(ev, i)
				}
				if end >= p.n {
					return
				}
			}
		}(ev)
	}
	wg.Wait()
	return out
}

// item runs item i of the operation start to finish on one evaluator.
func (p op) item(ev *tfhe.Evaluator, i int) []tfhe.LWECiphertext {
	ct, done := p.prepare(ev, i)
	if done {
		return []tfhe.LWECiphertext{ct}
	}
	outs := p.extract(ev, ev.BlindRotate(ct, p.testVec))
	if p.keyswitch {
		for j, big := range outs {
			outs[j] = ev.KeySwitch(big)
		}
	}
	return outs
}

// BatchGate applies one gate pairwise: out[i] = op(a[i], b[i]). For the
// unary NOT, b may be nil.
func (e *Engine) BatchGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return e.Gates(op.Repeat(len(a)), a, b)
}
