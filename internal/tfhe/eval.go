package tfhe

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/poly"
	"repro/internal/torus"
)

// Evaluator executes the server-side TFHE operations — programmable
// bootstrapping (Algorithm 1) and keyswitching (Algorithm 2) — using a key
// set. It owns reusable scratch buffers, so an Evaluator must not be shared
// between goroutines; create one per worker.
type Evaluator struct {
	Params   Params
	Keys     EvaluationKeys
	Counters OpCounters // cumulative operation counts (see counters.go)

	proc     *fft.Processor
	gadget   poly.Decomposer
	ksGadget poly.Decomposer

	// scratch; the external-product buffers are built lazily on the first
	// CMux, so an evaluator that never rotates stays light.
	epBuf    *externalProductBuffers
	ksDigits []int32         // keyswitch digits of one mask index, lk per tile input
	ksOuts   []LWECiphertext // keyswitch outputs of the tile in flight
	msBuf    []int           // BlindRotate's rotation amounts, length n
}

// NewEvaluator builds an evaluator around the evaluation keys.
func NewEvaluator(ek EvaluationKeys) *Evaluator {
	p := ek.Params
	return &Evaluator{
		Params:   p,
		Keys:     ek,
		proc:     fft.SharedProcessor(p.N),
		gadget:   poly.NewDecomposer(p.PBSBaseLog, p.PBSLevel),
		ksGadget: poly.NewDecomposer(p.KSBaseLog, p.KSLevel),
	}
}

// ensureRotateScratch allocates the external-product scratch buffers on
// first use, with a member slot for each of up to fft.TileGroup
// accumulators a CMux step serves together.
func (e *Evaluator) ensureRotateScratch(members int) {
	if e.epBuf == nil {
		e.epBuf = newExternalProductBuffers(e.Params.K, e.Params.N, e.Params.PBSLevel, e.proc)
	}
	e.epBuf.reserve(members, e.proc)
}

// BlindRotate runs the blind-rotation loop of Algorithm 1 on the test
// vector testVec driven by ciphertext c, returning the rotated accumulator.
// testVec is not modified; the accumulator is fresh. It composes the
// pipeline stage primitives of stages.go (modswitch → init → CMux steps)
// back-to-back, the CMux loop as a tile of one, so the sequential path
// and the streaming engine execute the same code.
func (e *Evaluator) BlindRotate(c LWECiphertext, testVec GLWECiphertext) GLWECiphertext {
	if e.msBuf == nil {
		e.msBuf = make([]int, e.Params.SmallN)
	}
	ms := e.ModSwitchLWETo(e.msBuf, c)    // Algorithm 1 lines 2–3
	acc := e.BlindRotateInit(testVec, ms) // line 4: rotate 'left' by -b̄
	accs, mss := [1]GLWECiphertext{acc}, [1]ModSwitched{ms}
	e.BlindRotateTile(e.Keys.BSK, accs[:], mss[:]) // lines 5–12: n CMux iterations
	return acc
}

// Bootstrap performs the full PBS (Algorithm 1): blind rotation of testVec
// followed by sample extraction. The result is an LWE ciphertext of
// dimension k·N under the extracted key.
func (e *Evaluator) Bootstrap(c LWECiphertext, testVec GLWECiphertext) LWECiphertext {
	return e.Extract(e.BlindRotate(c, testVec))
}

// KeySwitch converts an LWE ciphertext of dimension k·N (post-extraction)
// back to dimension n under the original key — Algorithm 2. It is the
// tile-of-one call of KeySwitchTile.
func (e *Evaluator) KeySwitch(c LWECiphertext) LWECiphertext {
	cs := [1]LWECiphertext{c}
	e.KeySwitchTile(e.Keys.KSK, cs[:])
	return cs[0]
}

// KeySwitchTile keyswitches every ciphertext of a tile in place: cs[b], of
// dimension k·N, is replaced by a fresh ciphertext of dimension n. The
// loop is key-major: for each mask index j it decomposes a_j of every
// input, then streams the lk key rows of j once across all outputs, so
// the key (16 MB at set I) is read once per tile, not once per ciphertext.
// Each output sees its own sequence of wrap-around subtractions, so it is
// bitwise identical to keyswitching alone. ksk is the keyswitching key
// slab (EvaluationKeys.KSK), passed in like BlindRotateTile's bsk.
func (e *Evaluator) KeySwitchTile(ksk []torus.Torus32, cs []LWECiphertext) {
	p := e.Params
	big, n, lk := p.ExtractedN(), p.SmallN, p.KSLevel
	outs := e.ksOuts[:0]
	for _, c := range cs {
		if c.N() != big {
			panic(fmt.Sprintf("tfhe: KeySwitch expects LWE dimension kN=%d, got %d", big, c.N()))
		}
		out := NewLWECiphertext(n)
		out.B = c.B // Algorithm 2 line 2
		outs = append(outs, out)
	}
	if cap(e.ksDigits) < len(cs)*lk {
		e.ksDigits = make([]int32, len(cs)*lk)
	}
	digits := e.ksDigits[:len(cs)*lk]
	for j := 0; j < big; j++ {
		for b, c := range cs {
			e.ksGadget.DigitsTo(digits[b*lk:(b+1)*lk], c.A[j]) // line 3: decomposition
		}
		for l := 0; l < lk; l++ {
			row := ksk[:n+1] // n mask words, then the body
			ksk = ksk[n+1:]
			for b := range outs {
				d := digits[b*lk+l]
				if d == 0 {
					continue
				}
				// Lines 4–6: o -= d · ksk[j][l] (vector-matrix multiply).
				torus.MulSub(outs[b].A[:n], row[:n], d)
				outs[b].B -= torus.Torus32(int32(row[n]) * d)
				e.Counters.KSMACs += int64(n + 1)
			}
		}
	}
	copy(cs, outs)
	clear(outs) // the scratch must not keep the caller's outputs alive
	e.ksOuts = outs
	e.Counters.KSDecompScalar += int64(len(cs) * big)
	e.Counters.KSCount += int64(len(cs))
}

// EncodePBSMessage encodes m ∈ {0..space-1} for PBS with a padding bit:
// the torus value is m/(2·space), keeping the phase in [0, 1/2) so the
// negacyclic wraparound never corrupts the lookup.
func EncodePBSMessage(m, space int) torus.Torus32 {
	return torus.EncodeMessage(((m%space)+space)%space, 2*space)
}

// DecodePBSMessage decodes a PBS-encoded torus value back to {0..space-1}.
func DecodePBSMessage(t torus.Torus32, space int) int {
	return torus.DecodeMessage(t, 2*space) % space
}

// NewLUTTestVector builds the GLWE test vector for a lookup table
// f: {0..space-1} → Torus32. Slot j of the body holds f(⌊j·space/N⌋); the
// caller must pre-shift the ciphertext phase by half a slot (EvalLUT does
// this) so noise is centered inside the slot.
func (e *Evaluator) NewLUTTestVector(space int, f func(int) torus.Torus32) GLWECiphertext {
	p := e.Params
	tv := NewGLWECiphertext(p.K, p.N)
	body := tv.Body()
	for j := 0; j < p.N; j++ {
		m := j * space / p.N
		body.Coeffs[j] = f(m % space)
	}
	return tv
}

// LUTTestVector builds the encoded test vector for the integer lookup
// table f: {0..space-1} → {0..space-1}. It is read-only during PBS, so one
// encoding can be shared across a whole stream of ciphertexts (the
// streaming engine's level-2 LUT sharing).
func (e *Evaluator) LUTTestVector(space int, f func(int) int) GLWECiphertext {
	return e.NewLUTTestVector(space, func(m int) torus.Torus32 {
		return EncodePBSMessage(f(m), space)
	})
}

// ShiftForLUT returns c shifted by half a slot, the LUT pre-processing of
// EvalLUT: centering each encoded message inside its slot lets the lookup
// tolerate noise up to 1/(4·space).
func (e *Evaluator) ShiftForLUT(c LWECiphertext, space int) LWECiphertext {
	shifted := c.Copy()
	shifted.AddPlain(torus.EncodeMessage(1, 4*space))
	e.Counters.LinearOps++
	return shifted
}

// EvalLUT applies the univariate function f (on {0..space-1}) to the
// encrypted message via programmable bootstrapping, returning a ciphertext
// of dimension k·N encoding f(m) with the same padding-bit encoding.
// The output of f must itself be in {0..space-1}.
func (e *Evaluator) EvalLUT(c LWECiphertext, space int, f func(int) int) LWECiphertext {
	return e.Bootstrap(e.ShiftForLUT(c, space), e.LUTTestVector(space, f))
}

// EvalLUTKS is EvalLUT followed by keyswitching back to dimension n, the
// PBS→KS sequence of §IV-C that the accelerator pipelines.
func (e *Evaluator) EvalLUTKS(c LWECiphertext, space int, f func(int) int) LWECiphertext {
	return e.KeySwitch(e.EvalLUT(c, space, f))
}
