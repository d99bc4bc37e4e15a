package tfhe

import (
	"fmt"

	"repro/internal/torus"
)

// A lookup is a group of k ≥ 1 tables over one encrypted input, evaluated
// by multi-value programmable bootstrapping: one blind rotation serves all
// k (Carpov, Izabachène and Mollimard, CT-RSA 2019). The k tables are packed
// into a single test vector on a k×-finer slot grid — each message window
// of width N/space is split into k subslots, subslot i holding table i's
// output — so the rotation that would serve one LUT serves all k, and the
// k results are read out by sample-extracting the accumulator at k
// coefficient offsets (one per subslot). The blind rotation dominates a
// PBS, so the amortized cost per output approaches 1/k of a full PBS.
//
// The price is precision: centering the phase inside a subslot shrinks
// the tolerated noise from 1/(4·space) to 1/(4·space·k), exactly as if
// the input were encoded in a message space k times larger. Packing
// therefore requires space·k ≤ N (at least one coefficient per subslot;
// ValidateMultiLUT), and the input noise must stay below the finer bound:
// noise.Check, the one noise rule every engine op, circuit and service
// request passes, refuses a lookup whose predicted failure at that
// margin exceeds noise.MaxFailure.
//
// With k = 1 the packed test vector, the half-subslot shift, and the
// single extraction offset are the plain lookup's: one lookup API serves
// every k ≥ 1.

// ValidateMultiLUT checks that k tables over message space `space` can be
// packed into one test vector under these parameters: the structural half
// of the one noise rule (noise.Check), which calls it, and the guard of
// LUTTestVector. It checks no noise.
func (p Params) ValidateMultiLUT(space, k int) error {
	switch {
	case space < 2:
		return fmt.Errorf("tfhe: multi-value LUT space %d < 2", space)
	case k < 1:
		return fmt.Errorf("tfhe: multi-value LUT count %d < 1", k)
	case space*k > p.N:
		return fmt.Errorf("tfhe: multi-value packing needs space·k ≤ N: %d·%d > %d", space, k, p.N)
	}
	return nil
}

// MultiLUTOffsets returns the k sample-extraction offsets of a packed
// test vector: output i is read at coefficient i·N/(space·k), the start
// of subslot i within the message window the rotation landed in.
func (p Params) MultiLUTOffsets(space, k int) []int {
	offsets := make([]int, k)
	for i := range offsets {
		offsets[i] = i * p.N / (space * k)
	}
	return offsets
}

// LUTTestVector builds the packed test vector for the k = len(fs) integer
// lookup tables fs (each on {0..space-1}): coefficient j falls in message
// window m = ⌊j·space/N⌋ and subslot i = ⌊j·space·k/N⌋ mod k, and holds
// the encoded fs[i](m). With one table every window is one subslot, the
// plain lookup's test vector. Like every test vector it is read-only
// during PBS, so one packing can be shared across a whole stream (the
// streaming engine's level-2 LUT sharing).
func (e *Evaluator) LUTTestVector(space int, fs []func(int) int) GLWECiphertext {
	p := e.Params
	k := len(fs)
	if err := p.ValidateMultiLUT(space, k); err != nil {
		panic(err)
	}
	tv := NewGLWECiphertext(p.K, p.N)
	body := tv.Body()
	for j := 0; j < p.N; j++ {
		fine := j * space * k / p.N
		body.Coeffs[j] = EncodePBSMessage(fs[fine%k](fine/k%space), space)
	}
	return tv
}

// ShiftForLUT returns c shifted by half a subslot of a k-table group, the
// lookup's pre-processing: centering the phase inside the k×-finer
// subslot grid keeps every extraction offset inside the input's message
// window for noise up to 1/(4·space·k).
func (e *Evaluator) ShiftForLUT(c LWECiphertext, space, k int) LWECiphertext {
	shifted := c.Copy()
	shifted.AddPlain(torus.EncodeMessage(1, 4*space*k))
	e.Counters.LinearOps++
	return shifted
}

// EvalLUT applies the k univariate functions fs (each on {0..space-1},
// outputs in {0..space-1}) to the one encrypted message via a single
// bootstrap: one blind rotation of the packed test vector, then one
// sample extraction per offset (MultiLUTOffsets). It returns k
// ciphertexts of dimension k·N where output i encodes fs[i](m) with the
// same padding-bit encoding; one table is the plain lookup.
func (e *Evaluator) EvalLUT(c LWECiphertext, space int, fs []func(int) int) []LWECiphertext {
	k := len(fs)
	tv := e.LUTTestVector(space, fs)
	return e.ExtractMulti(e.BlindRotate(e.ShiftForLUT(c, space, k), tv), e.Params.MultiLUTOffsets(space, k))
}

// EvalLUTKS is EvalLUT with every output keyswitched back to dimension n
// — one blind rotation fanned out into k full §IV-C PBS→KS results.
func (e *Evaluator) EvalLUTKS(c LWECiphertext, space int, fs []func(int) int) []LWECiphertext {
	outs := e.EvalLUT(c, space, fs)
	for i, big := range outs {
		outs[i] = e.KeySwitch(big)
	}
	return outs
}

// TableFuncs wraps integer lookup tables as the function form the LUT
// APIs take, with each table captured by value. Callers holding
// serialized [][]int tables (the scheduler, the gate service) use this to
// reach the packed test-vector builder.
func TableFuncs(tables [][]int) []func(int) int {
	fs := make([]func(int) int, len(tables))
	for i, table := range tables {
		table := table
		fs[i] = func(m int) int { return table[m] }
	}
	return fs
}
