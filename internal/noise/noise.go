package noise

import (
	"math"

	"repro/internal/tfhe"
)

// Budget describes an error budget: the maximum phase deviation the
// encoding tolerates, and the predicted standard deviation.
type Budget struct {
	Margin  float64 // decision margin (torus distance)
	StdDev  float64 // predicted phase standard deviation
	Sigmas  float64 // margin / stddev
	Failure float64 // two-sided gaussian tail probability at the margin
}

// Analyzer predicts noise variances for a parameter set.
type Analyzer struct {
	P tfhe.Params
}

// FreshLWEVariance returns the phase variance of a fresh LWE encryption.
func (a Analyzer) FreshLWEVariance() float64 {
	return a.P.LWEStdDev * a.P.LWEStdDev
}

// gadgetEpsilon2 returns the variance of the gadget rounding error for a
// base-2^baseLog, level-l decomposition: the residue is uniform in
// ±Q/(2·B^l), i.e. variance (1/B^l)²/12 in torus units.
func gadgetEpsilon2(baseLog, level int) float64 {
	q := math.Pow(2, -float64(baseLog*level))
	return q * q / 12
}

// externalProductVariance returns the variance added to a GLWE ciphertext
// by one external product with a fresh GGSW (per §V of TFHE [17]):
//
//	V_add = (k+1)·l·N·(B²/12)·σ_ggsw²  +  (1 + k·N/2)·ε²
//
// The first term is the decomposed-digit times key-noise contribution; the
// second is the gadget rounding error propagated through the secret key
// (binary key: expected weight N/2 per polynomial).
func (a Analyzer) externalProductVariance() float64 {
	p := a.P
	b2 := math.Pow(2, 2*float64(p.PBSBaseLog)) / 12 // E[digit²] for balanced digits
	keyTerm := float64((p.K+1)*p.PBSLevel) * float64(p.N) * b2 * p.GLWEStdDev * p.GLWEStdDev
	eps2 := gadgetEpsilon2(p.PBSBaseLog, p.PBSLevel)
	roundTerm := (1 + float64(p.K*p.N)/2) * eps2
	return keyTerm + roundTerm
}

// BlindRotateVariance returns the accumulator variance after a full blind
// rotation: n CMux external products.
func (a Analyzer) BlindRotateVariance() float64 {
	return float64(a.P.SmallN) * a.externalProductVariance()
}

// ModSwitchVariance returns the phase variance added by switching the LWE
// ciphertext from modulus 2^32 to 2N: each of the n mask coefficients
// rounds with variance (1/2N)²/12 and multiplies a key bit (E[s]=1/2),
// plus the body's own rounding.
func (a Analyzer) ModSwitchVariance() float64 {
	step := 1.0 / float64(2*a.P.N)
	r := step * step / 12
	return r * (1 + float64(a.P.SmallN)/2)
}

// KeySwitchVariance returns the variance added by keyswitching from
// dimension k·N to n:
//
//	V_ks = k·N·lk·(B²/12)·σ_ksk²  +  k·N·(1/2)·ε_ks²
func (a Analyzer) KeySwitchVariance() float64 {
	p := a.P
	big := float64(p.ExtractedN())
	b2 := math.Pow(2, 2*float64(p.KSBaseLog)) / 12
	keyTerm := big * float64(p.KSLevel) * b2 * p.LWEStdDev * p.LWEStdDev
	eps2 := gadgetEpsilon2(p.KSBaseLog, p.KSLevel)
	return keyTerm + big/2*eps2
}

// BootstrapOutputVariance returns the phase variance of a PBS output after
// keyswitching — the noise of a freshly bootstrapped ciphertext.
func (a Analyzer) BootstrapOutputVariance() float64 {
	return a.BlindRotateVariance() + a.KeySwitchVariance()
}

// Load is the phase variance a PBS input carries into its modulus switch,
// in the two units every wire of a circuit starts from: Fresh fresh
// encryptions (FreshLWEVariance) plus Boot bootstrapped outputs
// (BootstrapOutputVariance). A linear combination Σ cᵢ·xᵢ carries Σ cᵢ²
// times its operands' loads, so a circuit's loads are known before its
// parameter set is.
type Load struct {
	Fresh, Boot float64
}

// Add returns l + c²·m, the load of adding c times a wire of load m.
func (l Load) Add(c float64, m Load) Load {
	return Load{Fresh: l.Fresh + c*c*m.Fresh, Boot: l.Boot + c*c*m.Boot}
}

// The loads of a circuit's two kinds of wire.
var (
	FreshLoad = Load{Fresh: 1} // a circuit input: a fresh encryption
	BootLoad  = Load{Boot: 1}  // a PBS output, whatever its input was
)

// PBSBudget evaluates the budget of one bootstrap: its input carries load
// l, the modulus switch adds its rounding, and the test vector decides
// correctly within margin of the encoded value. A gate on two
// bootstrapped inputs is PBSBudget(Load{Boot: 2}, GateMargin), a lookup
// on a fresh input PBSBudget(FreshLoad, LUTMargin(space, 1)), and one on
// a bootstrapped input PBSBudget(BootLoad, LUTMargin(space, 1)).
func (a Analyzer) PBSBudget(l Load, margin float64) Budget {
	v := l.Fresh*a.FreshLWEVariance() + l.Boot*a.BootstrapOutputVariance() + a.ModSwitchVariance()
	return newBudget(margin, math.Sqrt(v))
}

// GateMargin is the decision margin of a gate bootstrap: the boolean
// encoding ±1/8 leaves 1/16 around the decision boundary.
const GateMargin = 1.0 / 16

// LUTMargin returns the decision margin of a k-table lookup over message
// space space: slots have width 1/(2·space·k) and the input is centered,
// so the margin is 1/(4·space·k). A plain LUT is k = 1.
func LUTMargin(space, k int) float64 {
	return 1 / float64(4*space*k)
}

func newBudget(margin, std float64) Budget {
	sig := margin / std
	return Budget{
		Margin:  margin,
		StdDev:  std,
		Sigmas:  sig,
		Failure: math.Erfc(sig / math.Sqrt2),
	}
}
