package engine

import (
	"fmt"

	"repro/internal/tfhe"
)

// The operation vocabulary: Gates, LUT, MultiLUT and Bootstrap are defined
// here once, as op descriptions that StreamingEngine.exec runs. They
// validate operands in the caller's goroutine, so every failure is an
// error or a recoverable panic and never a panic inside a worker, and
// serialize operations, so they are safe for concurrent use.

// op is one batched PBS operation, described as data. Every operation the
// engine runs is this shape, and its executor needs to know nothing else.
type op struct {
	// n is the number of items, k the number of outputs each yields: one
	// for a plain PBS, the table count for a multi-value one.
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
	// keyswitch brings every extracted output back to dimension n.
	keyswitch bool
}

// Counters returns the operation counters aggregated across every worker
// since construction (or the last ResetCounters).
func (s *StreamingEngine) Counters() tfhe.OpCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total tfhe.OpCounters
	for _, w := range s.workers {
		total.Add(w.ev.Counters)
	}
	return total
}

// ResetCounters zeroes every worker's counters.
func (s *StreamingEngine) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.workers {
		w.ev.Counters.Reset()
	}
}

// run executes one operation under the lock that serializes operations;
// see exec for the layout of the result.
func (s *StreamingEngine) run(p op) []tfhe.LWECiphertext {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec(p)
}

// runOne is run for the single-output operations: it supplies the plain
// one-extraction fan-out.
func (s *StreamingEngine) runOne(p op) []tfhe.LWECiphertext {
	p.k = 1
	p.extract = func(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext, outs []tfhe.LWECiphertext) {
		outs[0] = ev.Extract(acc)
	}
	return s.run(p)
}

// checkDim panics (from the caller's goroutine, so it is recoverable and
// carries the item index) unless ciphertext i of an operation has the
// small LWE dimension n. The underlying tfhe evaluator panics on dimension
// mismatch too, but from inside a worker goroutine, which would abort the
// whole process.
func (s *StreamingEngine) checkDim(api string, i int, ct tfhe.LWECiphertext) {
	if got, want := ct.N(), s.params.SmallN; got != want {
		panic(fmt.Sprintf("engine: %s: ciphertext %d has LWE dimension %d, want %d", api, i, got, want))
	}
}

// checkDims is checkDim over a whole operand list.
func (s *StreamingEngine) checkDims(api string, cts []tfhe.LWECiphertext) {
	for i, ct := range cts {
		s.checkDim(api, i, ct)
	}
}

// checkTestVec panics, like checkDim, unless testVec has the parameter
// set's GLWE shape: k+1 polynomials of N coefficients. The prepare phase
// would otherwise rotate it into an accumulator of that shape and index
// past one or the other inside a worker.
func (s *StreamingEngine) checkTestVec(api string, testVec tfhe.GLWECiphertext) {
	ok := testVec.K() == s.params.K
	for _, p := range testVec.Polys {
		ok = ok && p.N() == s.params.N
	}
	if !ok {
		panic(fmt.Sprintf("engine: %s: test vector is not a GLWE ciphertext of k=%d, N=%d", api, s.params.K, s.params.N))
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
	return s.runOne(op{n: len(ops), testVec: s.signTV, keyswitch: true,
		prepare: func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			return gateInput(ev, ops[i], a, b, i)
		}}), nil
}

// LUT applies the lookup table f (on {0..space-1}) to every ciphertext:
// the table is encoded once and shared by the whole batch, and each item
// is shift → PBS → keyswitch, the full §IV-C pipeline. Dimension-n outputs
// return in input order. A space the test vector cannot hold (space > N,
// the one-table case of Params.ValidateMultiLUT) is an error.
func (s *StreamingEngine) LUT(cts []tfhe.LWECiphertext, space int, f func(int) int) ([]tfhe.LWECiphertext, error) {
	if err := s.params.ValidateMultiLUT(space, 1); err != nil {
		return nil, err
	}
	s.checkDims("LUT", cts)
	return s.runOne(op{n: len(cts), testVec: s.workers[0].ev.LUTTestVector(space, f), keyswitch: true,
		prepare: func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			return ev.ShiftForLUT(cts[i], space), false
		}}), nil
}

// MultiLUT applies k lookup tables to every ciphertext with one blind
// rotation per item: the packed test vector is encoded once and shared by
// the whole batch, and each rotated accumulator fans out into k sample
// extractions and keyswitches. out[i][j] is table j applied to cts[i], at
// dimension n.
func (s *StreamingEngine) MultiLUT(cts []tfhe.LWECiphertext, space int, fs []func(int) int) ([][]tfhe.LWECiphertext, error) {
	k := len(fs)
	if err := s.params.ValidateMultiLUT(space, k); err != nil {
		return nil, err
	}
	s.checkDims("MultiLUT", cts)
	offsets := s.params.MultiLUTOffsets(space, k)
	flat := s.run(op{n: len(cts), k: k, testVec: s.workers[0].ev.NewMultiLUTTestVector(space, fs), keyswitch: true,
		prepare: func(ev *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			return ev.ShiftForMultiLUT(cts[i], space, k), false
		},
		extract: func(ev *tfhe.Evaluator, acc tfhe.GLWECiphertext, outs []tfhe.LWECiphertext) {
			copy(outs, ev.ExtractMulti(acc, offsets))
		}})
	out := make([][]tfhe.LWECiphertext, len(cts))
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out, nil
}

// Bootstrap runs the raw programmable bootstrap (Algorithm 1) on every
// ciphertext against the shared test vector, with no keyswitch: big-key
// (k·N) outputs return in input order.
func (s *StreamingEngine) Bootstrap(cts []tfhe.LWECiphertext, testVec tfhe.GLWECiphertext) []tfhe.LWECiphertext {
	s.checkTestVec("Bootstrap", testVec)
	s.checkDims("Bootstrap", cts)
	return s.runOne(op{n: len(cts), testVec: testVec,
		prepare: func(_ *tfhe.Evaluator, i int) (tfhe.LWECiphertext, bool) {
			return cts[i], false
		}})
}
