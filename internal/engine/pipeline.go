package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	mu     sync.Mutex
	params tfhe.Params

	prep   *tfhe.Evaluator   // prepare-stage evaluator
	rot    []*tfhe.Evaluator // blind-rotate stage worker pool
	ext    *tfhe.Evaluator   // sample-extract stage evaluator
	ks     []*tfhe.Evaluator // keyswitch stage worker pool
	signTV tfhe.GLWECiphertext

	streams int64 // completed stream calls, for diagnostics
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
		params: ek.Params,
		prep:   tfhe.NewEvaluator(ek),
		rot:    make([]*tfhe.Evaluator, rw),
		ext:    tfhe.NewEvaluator(ek),
		ks:     make([]*tfhe.Evaluator, kw),
	}
	for i := range s.rot {
		s.rot[i] = tfhe.NewEvaluator(ek)
	}
	for i := range s.ks {
		s.ks[i] = tfhe.NewEvaluator(ek)
	}
	// The sign test vector is a constant of the parameter set: encode it
	// once and share it across every gate stream (level-2 LUT sharing).
	s.signTV = s.prep.SignTestVector()
	return s
}

// RotateWorkers returns the blind-rotate stage pool size.
func (s *StreamingEngine) RotateWorkers() int { return len(s.rot) }

// KSWorkers returns the keyswitch stage pool size.
func (s *StreamingEngine) KSWorkers() int { return len(s.ks) }

// Params returns the parameter set the engine operates under.
func (s *StreamingEngine) Params() tfhe.Params { return s.params }

// Streams returns how many stream calls have completed.
func (s *StreamingEngine) Streams() int64 { return atomic.LoadInt64(&s.streams) }

// evaluators yields every stage evaluator, for counter aggregation.
func (s *StreamingEngine) evaluators() []*tfhe.Evaluator {
	evs := make([]*tfhe.Evaluator, 0, 2+len(s.rot)+len(s.ks))
	evs = append(evs, s.prep, s.ext)
	evs = append(evs, s.rot...)
	evs = append(evs, s.ks...)
	return evs
}

// Counters returns the aggregated operation counters across every stage
// worker since construction (or the last ResetCounters).
func (s *StreamingEngine) Counters() tfhe.OpCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total tfhe.OpCounters
	for _, ev := range s.evaluators() {
		total.Add(ev.Counters)
	}
	return total
}

// ResetCounters zeroes every stage worker's counters.
func (s *StreamingEngine) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range s.evaluators() {
		ev.Counters.Reset()
	}
}

// streamItem is one ciphertext in flight between stages: one accumulator
// fanning out into one or more extracted outputs.
type streamItem struct {
	idx  int
	ms   tfhe.ModSwitched
	acc  tfhe.GLWECiphertext
	bigs []tfhe.LWECiphertext
}

// streamMulti pushes items 0..n-1 through the staged pipeline. prepare
// runs in the first stage on the prepare evaluator and returns the LWE
// input to bootstrap for item i; done=true short-circuits the pipeline
// with ct as the item's single output (the free NOT gate). extract maps
// each rotated accumulator to the item's outputs on the extract-stage
// evaluator — one for a plain PBS, k for a multi-value one. testVec is
// read-only and shared by the whole stream. When doKS is false the fused
// keyswitch stage is bypassed and outputs stay at dimension k·N; each KS
// worker otherwise keyswitches a whole item's outputs in order, which
// keeps results bitwise stable across pool widths. Callers hold s.mu.
func (s *StreamingEngine) streamMulti(n int, testVec tfhe.GLWECiphertext, prepare func(ev *tfhe.Evaluator, i int) (ct tfhe.LWECiphertext, done bool), extract func(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext) []tfhe.LWECiphertext, doKS bool) [][]tfhe.LWECiphertext {
	out := make([][]tfhe.LWECiphertext, n)
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
		for i := 0; i < n; i++ {
			ct, done := prepare(s.prep, i)
			if done {
				out[i] = []tfhe.LWECiphertext{ct}
				continue
			}
			ms := s.prep.ModSwitchLWE(ct)
			toRotate <- streamItem{idx: i, ms: ms, acc: s.prep.BlindRotateInit(testVec, ms)}
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
			it.bigs = extract(s.ext, it.acc)
			if !doKS {
				out[it.idx] = it.bigs
				continue
			}
			extracted <- it
		}
	}()

	// Stage 4 — fused keyswitch (Algorithm 2, the §IV-C handoff): the
	// extracted ciphertexts go straight to the KS pool without ever
	// surfacing to the caller. A KS-less stream (StreamBootstrap) skips
	// the pool; draining the closed channel is the completion barrier
	// that orders the extract stage's out writes before the return.
	if !doKS {
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
	atomic.AddInt64(&s.streams, 1)
	return out
}

// extractOne is the plain-PBS extract stage: one output per accumulator.
func extractOne(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext) []tfhe.LWECiphertext {
	return []tfhe.LWECiphertext{ev.Extract(acc)}
}

// stream is streamMulti for the single-output operations (gates, plain
// LUTs, raw bootstraps): one extraction per accumulator, outputs
// flattened to one ciphertext per item.
func (s *StreamingEngine) stream(n int, testVec tfhe.GLWECiphertext, prepare func(ev *tfhe.Evaluator, i int) (ct tfhe.LWECiphertext, done bool), doKS bool) []tfhe.LWECiphertext {
	out := make([]tfhe.LWECiphertext, n)
	for i, outs := range s.streamMulti(n, testVec, prepare, extractOne, doKS) {
		out[i] = outs[0]
	}
	return out
}

// StreamBootstrap streams the raw programmable bootstrap (Algorithm 1)
// over every ciphertext against the shared test vector, returning big-key
// (k·N) outputs in input order. The keyswitch stage is bypassed, matching
// Engine.BatchBootstrap.
func (s *StreamingEngine) StreamBootstrap(cts []tfhe.LWECiphertext, testVec tfhe.GLWECiphertext) []tfhe.LWECiphertext {
	checkDims("StreamBootstrap", cts, s.params.SmallN)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stream(len(cts), testVec, func(_ *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
		return cts[i], false
	}, false)
}

// StreamLUT streams the lookup table f (on {0..space-1}) over every
// ciphertext: the LUT is encoded once and shared by the whole stream, each
// item flows through shift → PBS → fused keyswitch, and dimension-n
// outputs return in input order — the full §IV-C pipeline.
func (s *StreamingEngine) StreamLUT(cts []tfhe.LWECiphertext, space int, f func(int) int) []tfhe.LWECiphertext {
	checkDims("StreamLUT", cts, s.params.SmallN)
	s.mu.Lock()
	defer s.mu.Unlock()
	testVec := s.prep.LUTTestVector(space, f)
	return s.stream(len(cts), testVec, func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
		return ev.ShiftForLUT(cts[i], space), false
	}, true)
}

// StreamMultiLUT streams k lookup tables over every ciphertext with one
// blind rotation per item: the packed test vector is encoded once and
// shared by the whole stream, each item flows through shift → modswitch →
// blind rotate, and the extract stage fans the rotated accumulator out
// into k sample extractions whose keyswitches are fused into the KS pool
// — k full §IV-C outputs per rotation. out[i][j] is table j applied to
// cts[i], bitwise identical to the sequential EvalMultiLUTKS for any
// stage configuration.
func (s *StreamingEngine) StreamMultiLUT(cts []tfhe.LWECiphertext, space int, fs []func(int) int) ([][]tfhe.LWECiphertext, error) {
	k := len(fs)
	if err := s.params.ValidateMultiLUT(space, k); err != nil {
		return nil, err
	}
	checkDims("StreamMultiLUT", cts, s.params.SmallN)
	s.mu.Lock()
	defer s.mu.Unlock()

	testVec := s.prep.NewMultiLUTTestVector(space, fs)
	offsets := s.params.MultiLUTOffsets(space, k)
	return s.streamMulti(len(cts), testVec, func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
		return ev.ShiftForMultiLUT(cts[i], space, k), false
	}, func(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext) []tfhe.LWECiphertext {
		return ev.ExtractMulti(acc, offsets)
	}, true), nil
}

// gateInput dispatches the pre-bootstrap linear stage of gate i of a
// batch. NOT is fully linear: it completes here, bypasses the PBS and
// never reads b.
func gateInput(ev *tfhe.Evaluator, op GateOp, a, b []tfhe.LWECiphertext, i int) (tfhe.LWECiphertext, bool) {
	switch op {
	case NAND:
		return ev.NANDInput(a[i], b[i]), false
	case AND:
		return ev.ANDInput(a[i], b[i]), false
	case OR:
		return ev.ORInput(a[i], b[i]), false
	case NOR:
		return ev.NORInput(a[i], b[i]), false
	case XOR:
		return ev.XORInput(a[i], b[i]), false
	case XNOR:
		return ev.XNORInput(a[i], b[i]), false
	case NOT:
		return ev.NOT(a[i]), true
	default:
		panic(fmt.Sprintf("engine: unknown gate %d", int(op)))
	}
}

// StreamGates streams one gate per item: out[i] = ops[i](a[i], b[i]). The
// ops may differ freely: the whole stream shares the sign test vector
// encoded at construction, and each lane is its own op's linear
// combination → PBS → fused keyswitch. Where ops[i] is the unary NOT b[i]
// is unused; b may be nil when every op is.
func (s *StreamingEngine) StreamGates(ops []GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if err := validateGateOperands("StreamGates", s.params, ops, a, b); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stream(len(ops), s.signTV, func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
		return gateInput(ev, ops[i], a, b, i)
	}, true), nil
}

// StreamGate streams one gate pairwise: out[i] = op(a[i], b[i]). For the
// unary NOT, b may be nil.
func (s *StreamingEngine) StreamGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.StreamGates(op.Repeat(len(a)), a, b)
}
