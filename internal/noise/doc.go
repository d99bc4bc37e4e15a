// Package noise provides the variance analysis of TFHE operations: closed
// form predictions of the noise growth through external products, blind
// rotation, modulus switching and keyswitching, following the analysis of
// the TFHE papers the Strix paper builds on (refs [17], [43]).
//
// It also holds the library's one noise rule, Check: every bootstrap is
// described by the load its input carries (a multiple of a fresh
// encryption's variance plus a multiple of a bootstrapped output's) and
// its decision margin, 1/16 for a gate and 1/(4·space·k) for a k-table
// lookup; one whose predicted failure probability exceeds MaxFailure
// (2⁻⁹), or whose tables do not fit the test vector, is refused with a
// *BudgetError carrying the node, σ and the predicted failure. sched
// applies it once per circuit, on the loads its wires carry, and packs no
// group it refuses; the gate service applies it to a lookup request on a
// fresh input; intops chooses its digit radix by it. The engine runs
// what its callers admitted.
//
// The predictions are validated against Monte-Carlo measurements of the
// functional library (see noise_test.go: the bootstrapped output σ and
// the σ a LUT on a bootstrapped input decides on, at the test set and at
// set I).
package noise
