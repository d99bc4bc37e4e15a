package tfhe

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/torus"
)

// Stage-split programmable bootstrapping. The Strix pipeline (§IV-C) does
// not execute a PBS as one monolithic call: ciphertexts stream through
// specialized stages — modulus switch, blind rotation (decompose → FFT →
// Fourier MAC → IFFT per CMux), sample extraction, keyswitch — and each
// stage's setup is amortized across the whole batch. The methods in this
// file expose exactly those stage boundaries so the streaming engine can
// run each one over a whole tile in turn, while the sequential
// Evaluator.Bootstrap composes the same methods back-to-back. The two
// stages that read the evaluation key take a tile — a handful of
// ciphertexts sharing one pass over it (BlindRotateTile, KeySwitchTile) —
// and the per-ciphertext calls are their tile-of-one case. Both paths run
// the identical computation in the identical per-ciphertext order, which
// keeps streamed results bitwise-equal to sequential ones.

// ModSwitched carries an LWE ciphertext across the modulus-switch stage
// boundary: the body and mask coefficients rescaled to Z_{2N} rotation
// amounts (Algorithm 1 lines 2–3). It is plain integer data, so it can be
// handed between pipeline stages without sharing evaluator scratch.
type ModSwitched struct {
	B int   // body rotation amount in [0, 2N)
	A []int // mask rotation amounts, length n
}

// ModSwitchLWE runs the modulus-switch stage on one ciphertext: every
// coefficient is rescaled from the torus to Z_{2N} (Algorithm 1 lines 2–3).
// The result owns fresh storage, so it can be handed to another pipeline
// stage.
func (e *Evaluator) ModSwitchLWE(c LWECiphertext) ModSwitched {
	return e.ModSwitchLWETo(make([]int, e.Params.SmallN), c)
}

// ModSwitchLWETo is ModSwitchLWE into the caller's rotation-amount buffer
// a, of length n, which the result holds: BlindRotate passes evaluator
// scratch, the streaming engine a slot its worker keeps across tiles.
func (e *Evaluator) ModSwitchLWETo(a []int, c LWECiphertext) ModSwitched {
	p := e.Params
	if c.N() != p.SmallN {
		panic(fmt.Sprintf("tfhe: ModSwitchLWE expects LWE dimension n=%d, got %d", p.SmallN, c.N()))
	}
	twoN := 2 * p.N
	ms := ModSwitched{B: torus.ModSwitch(c.B, twoN), A: a}
	for i, ai := range c.A {
		ms.A[i] = torus.ModSwitch(ai, twoN)
	}
	e.Counters.ModSwitches += int64(c.N() + 1)
	return ms
}

// BlindRotateInit starts the blind-rotation stage: a fresh accumulator
// holding the test vector rotated by -b̄ (Algorithm 1 line 4). testVec is
// read-only and may be shared across a whole stream.
func (e *Evaluator) BlindRotateInit(testVec GLWECiphertext, ms ModSwitched) GLWECiphertext {
	acc := NewGLWECiphertext(e.Params.K, e.Params.N)
	e.BlindRotateInitTo(acc, testVec, ms)
	return acc
}

// BlindRotateInitTo is BlindRotateInit into the caller's accumulator, of
// testVec's shape, which it fully overwrites whatever it held.
func (e *Evaluator) BlindRotateInitTo(acc, testVec GLWECiphertext, ms ModSwitched) {
	testVec.RotateTo(acc, -ms.B)
	e.Counters.Rotations++
}

// CMuxAt performs blind-rotation iteration i (Algorithm 1 lines 6–12) on
// the accumulator: acc ← CMux(BSK[i], acc·X^aBar, acc). A zero rotation is
// the identity and is skipped without touching the accumulator.
func (e *Evaluator) CMuxAt(acc GLWECiphertext, i, aBar int) {
	if aBar == 0 {
		return
	}
	e.ensureRotateScratch(1)
	ExternalProductRotSubAcc(acc, aBar, e.Keys.BSK[i], e.gadget, e.proc, e.epBuf, &e.Counters)
}

// BlindRotateTile runs the n CMux iterations on a tile of accumulators,
// key-major: iteration i is applied to every accumulator before bsk_{i+1}
// is touched, so one fetch of each GGSW serves the whole tile — the
// core-level batch of §IV. Step i decomposes every accumulator whose
// rotation amount is nonzero into its own digit slot, runs one tile MAC
// over them fft.TileGroup at a time (each key element loaded once per
// group), and inverse-transforms each into its accumulator; an accumulator
// whose amount is zero is left out of the step, which is the identity for
// it. accs[j] is driven by mss[j] and sees exactly the CMux steps it would
// see alone, so the result is bitwise identical. bsk is the bootstrapping
// key the tile is rotated under (EvaluationKeys.BSK), passed in so that
// one evaluator can serve tiles of any key set of its parameters.
func (e *Evaluator) BlindRotateTile(bsk []GGSWFourier, accs []GLWECiphertext, mss []ModSwitched) {
	e.ensureRotateScratch(len(accs))
	b := e.epBuf
	for i, g := range bsk[:e.Params.SmallN] {
		group := b.group[:0]
		for j, acc := range accs {
			aBar := mss[j].A[i]
			if aBar == 0 {
				continue
			}
			b.loadRotSub(len(group), acc, aBar, e.gadget, e.proc, &e.Counters)
			if group = append(group, acc); len(group) == fft.TileGroup {
				b.macInverse(group, g, e.proc, &e.Counters)
				group = group[:0]
			}
		}
		if len(group) > 0 {
			b.macInverse(group, g, e.proc, &e.Counters)
		}
	}
	clear(b.group[:]) // the scratch must not keep the caller's accumulators alive
}

// Extract runs the sample-extraction stage (Algorithm 1 line 13), closing
// out one PBS: the accumulator's constant coefficient becomes an LWE
// ciphertext of dimension k·N.
func (e *Evaluator) Extract(acc GLWECiphertext) LWECiphertext {
	out := SampleExtract(acc)
	e.Counters.SampleExtracts++
	e.Counters.PBSCount++
	return out
}

// ExtractMulti runs the multi-value sample-extraction stage: one rotated
// accumulator yields one LWE ciphertext per offset (MultiLUTOffsets). It
// closes out a single PBS — the rotation was paid once — while fanning
// out len(offsets) outputs; the streaming engine places it where the
// plain Extract stage sits. One offset is the plain extraction and counts
// as Extract does: only a fan-out of two or more is a multi-value PBS.
func (e *Evaluator) ExtractMulti(acc GLWECiphertext, offsets []int) []LWECiphertext {
	outs := make([]LWECiphertext, len(offsets))
	for i, t := range offsets {
		outs[i] = SampleExtractAt(acc, t)
	}
	e.Counters.SampleExtracts += int64(len(offsets))
	e.Counters.PBSCount++
	if len(offsets) > 1 {
		e.Counters.MultiValuePBS++
		e.Counters.MultiValueOuts += int64(len(offsets))
	}
	return outs
}
