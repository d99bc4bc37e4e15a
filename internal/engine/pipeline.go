package engine

import (
	"runtime"
	"sync"

	"repro/internal/tfhe"
)

// StreamingEngine is the software mirror of the Strix streaming
// architecture (§IV): instead of assigning one worker a whole PBS (the
// flat Engine), ciphertexts flow through a channel-connected pipeline of
// specialized stages,
//
//	prepare (linear op + modswitch + init rotation)
//	  → blind rotate (n CMux steps; the dominant stage, a worker pool)
//	  → sample extract
//	  → keyswitch (fused §IV-C handoff, a worker pool)
//
// with two levels of batching. Level 1 batches across ciphertexts: every
// stage works on a different ciphertext at the same time, and stage setup
// (the encoded test vector or LUT, built once in prepare) is shared by the
// whole stream. Level 2 batches within a stage: each CMux step streams
// all (k+1)·lb digit polynomials of the step through fused decompose→FFT
// bursts — digit extraction writes twisted Fourier points directly, with
// no intermediate digit staging (see tfhe.ExternalProductAcc and
// fft.Processor.ForwardDecompose). The PBS→KS handoff is fused into the
// pipeline, so extraction output never round-trips through the caller.
//
// Every stage runs the exact computation of the sequential
// tfhe.Evaluator's corresponding step, in the same per-ciphertext order,
// so results are bitwise identical to sequential evaluation for any stage
// or worker configuration.
type StreamingEngine struct {
	Ops

	prep *tfhe.Evaluator   // prepare-stage evaluator
	rot  []*tfhe.Evaluator // blind-rotate stage worker pool
	ext  *tfhe.Evaluator   // sample-extract stage evaluator
	ks   []*tfhe.Evaluator // keyswitch stage worker pool
}

// StreamConfig tunes the streaming pipeline's stage widths.
type StreamConfig struct {
	// RotateWorkers is the worker count of the blind-rotate stage, the
	// pipeline's dominant stage. 0 means runtime.NumCPU().
	RotateWorkers int
	// KSWorkers is the worker count of the keyswitch stage. 0 picks
	// max(1, RotateWorkers/4), matching keyswitching's share of the gate
	// workload (Fig 1).
	KSWorkers int
}

// NewStreaming builds a streaming engine over the evaluation keys. The
// keys are shared read-only by every stage worker; each worker owns a
// private evaluator for scratch and counters.
func NewStreaming(ek tfhe.EvaluationKeys, cfg StreamConfig) *StreamingEngine {
	rw := cfg.RotateWorkers
	if rw <= 0 {
		rw = runtime.NumCPU()
	}
	kw := cfg.KSWorkers
	if kw <= 0 {
		kw = rw / 4
		if kw < 1 {
			kw = 1
		}
	}
	s := &StreamingEngine{
		prep: tfhe.NewEvaluator(ek),
		rot:  make([]*tfhe.Evaluator, rw),
		ext:  tfhe.NewEvaluator(ek),
		ks:   make([]*tfhe.Evaluator, kw),
	}
	for i := range s.rot {
		s.rot[i] = tfhe.NewEvaluator(ek)
	}
	for i := range s.ks {
		s.ks[i] = tfhe.NewEvaluator(ek)
	}
	s.Ops = newOps(ek.Params, append(append([]*tfhe.Evaluator{s.prep, s.ext}, s.rot...), s.ks...), s.exec)
	return s
}

// streamItem is one ciphertext in flight between stages: one accumulator
// fanning out into one or more extracted outputs.
type streamItem struct {
	idx  int
	ms   tfhe.ModSwitched
	acc  tfhe.GLWECiphertext
	bigs []tfhe.LWECiphertext
}

// exec pushes the items of one operation through the staged pipeline.
// p.prepare runs in the first stage on the prepare evaluator, p.extract
// in the third on the extract-stage evaluator, and p.testVec is shared by
// the whole stream. When p.keyswitch is false the fused keyswitch stage
// is bypassed and outputs stay at dimension k·N; each KS worker otherwise
// keyswitches a whole item's outputs in order, which keeps results
// bitwise stable across pool widths.
func (s *StreamingEngine) exec(p op) [][]tfhe.LWECiphertext {
	out := make([][]tfhe.LWECiphertext, p.n)
	// Two items of buffer per rotate worker between stages: enough slack
	// that a fast stage never stalls on a momentarily busy neighbour.
	depth := 2 * len(s.rot)
	rotated := make(chan streamItem, depth)
	extracted := make(chan streamItem, depth)
	toRotate := make(chan streamItem, depth)

	// Stage 1 — prepare: per-item linear op, modulus switch, initial
	// rotation of the shared test vector (Algorithm 1 lines 2–4).
	go func() {
		defer close(toRotate)
		for i := 0; i < p.n; i++ {
			ct, done := p.prepare(s.prep, i)
			if done {
				out[i] = []tfhe.LWECiphertext{ct}
				continue
			}
			ms := s.prep.ModSwitchLWE(ct)
			toRotate <- streamItem{idx: i, ms: ms, acc: s.prep.BlindRotateInit(p.testVec, ms)}
		}
	}()

	// Stage 2 — blind rotate: the n CMux iterations (lines 5–12), with
	// level-2 batched decompose/FFT inside each step.
	var rotWG sync.WaitGroup
	for _, ev := range s.rot {
		rotWG.Add(1)
		go func(ev *tfhe.Evaluator) {
			defer rotWG.Done()
			for it := range toRotate {
				ev.BlindRotateSteps(it.acc, it.ms)
				rotated <- it
			}
		}(ev)
	}
	go func() {
		rotWG.Wait()
		close(rotated)
	}()

	// Stage 3 — sample extract (line 13), fanning the accumulator out
	// into the item's outputs.
	go func() {
		defer close(extracted)
		for it := range rotated {
			it.bigs = p.extract(s.ext, it.acc)
			if !p.keyswitch {
				out[it.idx] = it.bigs
				continue
			}
			extracted <- it
		}
	}()

	// Stage 4 — fused keyswitch (Algorithm 2, the §IV-C handoff): the
	// extracted ciphertexts go straight to the KS pool without ever
	// surfacing to the caller. A KS-less stream (Bootstrap) skips the
	// pool; draining the closed channel is the completion barrier
	// that orders the extract stage's out writes before the return.
	if !p.keyswitch {
		for range extracted {
		}
	} else {
		var ksWG sync.WaitGroup
		for _, ev := range s.ks {
			ksWG.Add(1)
			go func(ev *tfhe.Evaluator) {
				defer ksWG.Done()
				for it := range extracted {
					outs := make([]tfhe.LWECiphertext, len(it.bigs))
					for j, big := range it.bigs {
						outs[j] = ev.KeySwitch(big)
					}
					out[it.idx] = outs
				}
			}(ev)
		}
		ksWG.Wait()
	}
	return out
}

// StreamGate streams one gate pairwise: out[i] = op(a[i], b[i]). For the
// unary NOT, b may be nil.
func (s *StreamingEngine) StreamGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.Gates(op.Repeat(len(a)), a, b)
}
