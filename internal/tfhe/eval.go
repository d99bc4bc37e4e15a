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
