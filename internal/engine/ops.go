package engine

import (
	"fmt"

	"repro/internal/tfhe"
)

// The operation vocabulary: Gates and LUT are defined here once, as op
// descriptions that StreamingEngine.exec runs, each item PBS → keyswitch.
// They validate operands in the caller's goroutine, so every failure is an
// error or a recoverable panic and never a panic inside a worker. They are
// safe for concurrent use: each operation runs on workers of its own.

// op is one batched PBS operation, described as data. Every operation the
// engine runs is this shape, and its executor needs to know nothing else.
type op struct {
	// n is the number of items, k the number of outputs each yields: one
	// for a gate, the table count for a lookup.
	n, k int
	// testVec is the test vector the whole batch bootstraps against,
	// read-only and shared by every worker.
	testVec tfhe.GLWECiphertext
	// prepare is the per-item linear stage: it returns the LWE input to
	// bootstrap for item i. done=true finishes the item with ct as its
	// single output and no PBS (the free NOT gate).
	prepare func(ev *tfhe.Evaluator, i int) (ct tfhe.LWECiphertext, done bool)
	// extract fans one rotated accumulator out into the item's k big-key
	// outputs.
	extract func(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext, outs []tfhe.LWECiphertext)
}

// Counters returns the operation counters of every operation this engine
// has completed since construction (or the last ResetCounters).
func (s *StreamingEngine) Counters() tfhe.OpCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ResetCounters zeroes the engine's counters.
func (s *StreamingEngine) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Reset()
}

// encoder returns an evaluator of the engine's parameter set for encoding
// a test vector in the caller's goroutine; it holds no key.
func (s *StreamingEngine) encoder() *tfhe.Evaluator {
	return tfhe.NewEvaluator(tfhe.EvaluationKeys{Params: s.keys.Params})
}

// checkDim panics (from the caller's goroutine, so it is recoverable and
// carries the item index) unless ciphertext i of an operation has the
// small LWE dimension n. The underlying tfhe evaluator panics on dimension
// mismatch too, but from inside a worker goroutine, which would abort the
// whole process.
func (s *StreamingEngine) checkDim(api string, i int, ct tfhe.LWECiphertext) {
	if got, want := ct.N(), s.keys.Params.SmallN; got != want {
		panic(fmt.Sprintf("engine: %s: ciphertext %d has LWE dimension %d, want %d", api, i, got, want))
	}
}

// checkDims is checkDim over a whole operand list.
func (s *StreamingEngine) checkDims(api string, cts []tfhe.LWECiphertext) {
	for i, ct := range cts {
		s.checkDim(api, i, ct)
	}
}

// Gates applies one gate per item: out[i] = ops[i](a[i], b[i]), each the
// full PBS + keyswitch. The ops may differ freely: every binary gate
// bootstraps against the same sign test vector, and the op only selects
// the linear stage in front of it. Where ops[i] is the unary NOT, b[i] is
// unused and may be a zero-value placeholder; b may be nil when every op
// is NOT.
func (s *StreamingEngine) Gates(ops []GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if len(ops) != len(a) || (b != nil && len(b) != len(a)) {
		return nil, fmt.Errorf("engine: Gates: length mismatch: %d ops over %d and %d operands", len(ops), len(a), len(b))
	}
	for i, g := range ops {
		if g < 0 || int(g) >= len(gateNames) {
			return nil, fmt.Errorf("engine: Gates: item %d: unknown gate %d", i, int(g))
		}
		if g != NOT && b == nil {
			return nil, fmt.Errorf("engine: Gates: item %d: %s takes two operands, got no b", i, g)
		}
	}
	s.checkDims("Gates", a)
	for i, g := range ops {
		if g != NOT {
			s.checkDim("Gates", i, b[i])
		}
	}
	return s.exec(op{n: len(ops), k: 1, testVec: s.signTV, extract: extractOne,
		prepare: func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			return gateInput(ev, ops[i], a, b, i)
		}}), nil
}

// extractOne is a gate's fan-out: the one plain extraction.
func extractOne(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext, outs []tfhe.LWECiphertext) {
	outs[0] = ev.Extract(acc)
}

// Params returns the parameter set of the engine's keys.
func (s *StreamingEngine) Params() tfhe.Params { return s.keys.Params }

// LUT applies the k = len(fs) lookup tables (each on {0..space-1}) to
// every ciphertext with one blind rotation per item, the multi-value PBS:
// the packed test vector is encoded once and shared by the whole batch,
// and each item is shift → PBS → k extractions → k keyswitches, the full
// §IV-C pipeline, bitwise tfhe.Evaluator.EvalLUTKS for every k; one table
// is the plain lookup. The k·len(cts) dimension-n outputs return
// input-major: out[i·k+j] is table j applied to cts[i]. Tables the test
// vector cannot hold are an error; like every engine op, LUT applies no
// noise rule, as its callers do.
func (s *StreamingEngine) LUT(cts []tfhe.LWECiphertext, space int, fs []func(int) int) ([]tfhe.LWECiphertext, error) {
	k := len(fs)
	if err := s.keys.Params.ValidateMultiLUT(space, k); err != nil {
		return nil, err
	}
	s.checkDims("LUT", cts)
	offsets := s.keys.Params.MultiLUTOffsets(space, k)
	return s.exec(op{n: len(cts), k: k, testVec: s.encoder().LUTTestVector(space, fs),
		prepare: func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			return ev.ShiftForLUT(cts[i], space, k), false
		},
		extract: func(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext, outs []tfhe.LWECiphertext) {
			copy(outs, ev.ExtractMulti(acc, offsets))
		}}), nil
}
