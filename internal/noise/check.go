package noise

import (
	"fmt"

	"repro/internal/tfhe"
)

// MaxFailure is the one noise rule's threshold: the largest predicted
// failure probability of one PBS output that Check admits, 2⁻⁹ (a
// decision margin of about 3.1σ). Gates on bootstrapped inputs pass it
// at every set (set I predicts 3.7·10⁻²¹, set III 5·10⁻⁵), and so do the
// lookups the conformance suite runs at the test set (the widest, three
// tables at space 8, predicts 1.3·10⁻³). It refuses four tables at space
// 8 there (1.6·10⁻²) and, at set I, radix-4 digit sums and the inference
// circuit (2·10⁻² to 0.4), so intops computes at radix 2 there. The model
// is optimistic where the modulus switch dominates: at the test set three
// tables at space 8 decoded wrong in 14 of 3000 groups (4.7·10⁻³). The
// threshold stays this loose because a tighter one refuses shapes the
// conformance suite runs, until the parameter sets' gadgets and the
// inference's message spaces are chosen from the budget (ROADMAP items 13
// and 1 stage B).
const MaxFailure = 1.0 / 512

// PBS is one bootstrap's noise requirement, independent of the parameter
// set: the load of its input and what it decides. Space and K are the
// message space and table count of a lookup; both are zero for a gate,
// which decides at GateMargin.
type PBS struct {
	Node     int // the circuit wire it computes (a group's head); -1 outside a circuit
	In       Load
	Space, K int
}

// margin returns the bootstrap's decision margin.
func (b PBS) margin() float64 {
	if b.K == 0 {
		return GateMargin
	}
	return LUTMargin(b.Space, b.K)
}

// BudgetError is Check's refusal: the bootstrap whose predicted failure
// exceeds MaxFailure, and its budget under the parameter set.
type BudgetError struct {
	Node int    // the circuit wire, -1 outside a circuit
	Set  string // the parameter set's name
	Budget
}

// Error implements error.
func (e *BudgetError) Error() string {
	at := "engine op"
	if e.Node >= 0 {
		at = fmt.Sprintf("node %d", e.Node)
	}
	return fmt.Sprintf("noise: %s at set %s: input σ %.3g against margin %.3g (%.1fσ) predicts failure %.2g > %.2g",
		at, e.Set, e.StdDev, e.Margin, e.Sigmas, e.Failure, MaxFailure)
}

// Check is the one noise rule: it refuses bootstraps that parameter set
// p cannot compute, a lookup whose tables do not fit the test vector
// (tfhe.Params.ValidateMultiLUT) or any bootstrap whose predicted failure
// exceeds MaxFailure (a *BudgetError), reporting the first in order, and
// any bootstrap at all under a p that fails tfhe.Params.Validate (the
// zero Params too). It allocates nothing when it admits them all.
func Check(p tfhe.Params, pbs ...PBS) error {
	if len(pbs) == 0 {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	a := Analyzer{P: p}
	for _, b := range pbs {
		if b.K > 0 {
			if err := p.ValidateMultiLUT(b.Space, b.K); err != nil {
				return err
			}
		}
		bud := a.PBSBudget(b.In, b.margin())
		if !(bud.Failure <= MaxFailure) {
			return &BudgetError{Node: b.Node, Set: p.Name, Budget: bud}
		}
	}
	return nil
}
