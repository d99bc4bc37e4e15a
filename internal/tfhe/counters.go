package tfhe

// OpCounters records the operation mix of PBS and keyswitching executions.
// The Fig 1 experiment derives the paper's workload breakdown from these
// counts weighted by per-operation CPU cost, instead of hard-coding the
// published percentages.
type OpCounters struct {
	// Blind rotation (per PBS: n iterations).
	Rotations      int64 // GLWE negacyclic rotations (Rotator Unit work)
	Decompositions int64 // gadget decompositions of GLWE components
	ForwardFFTs    int64 // forward transforms of digit polynomials
	InverseFFTs    int64 // inverse transforms of accumulated products
	VMAMuls        int64 // complex multiply-accumulates (Fourier domain)
	Accumulations  int64 // time-domain coefficient accumulations

	// Whole-operation counts.
	PBSCount       int64
	ModSwitches    int64 // scalar modulus switches
	SampleExtracts int64
	KSCount        int64
	KSDecompScalar int64 // scalar decompositions in keyswitching
	KSMACs         int64 // scalar multiply-accumulates in keyswitching
	LinearOps      int64 // homomorphic additions/subtractions of LWE

	// Multi-value PBS: blind rotations that served two or more LUT
	// outputs (each also counts once in PBSCount) and the outputs they
	// fanned out. A one-table lookup is a plain PBS and counts in neither.
	// MultiValueOuts − MultiValuePBS is the number of rotations saved
	// versus evaluating every output with its own PBS.
	MultiValuePBS  int64
	MultiValueOuts int64
}

// Add accumulates other into c.
func (c *OpCounters) Add(other OpCounters) {
	c.Rotations += other.Rotations
	c.Decompositions += other.Decompositions
	c.ForwardFFTs += other.ForwardFFTs
	c.InverseFFTs += other.InverseFFTs
	c.VMAMuls += other.VMAMuls
	c.Accumulations += other.Accumulations
	c.PBSCount += other.PBSCount
	c.ModSwitches += other.ModSwitches
	c.SampleExtracts += other.SampleExtracts
	c.KSCount += other.KSCount
	c.KSDecompScalar += other.KSDecompScalar
	c.KSMACs += other.KSMACs
	c.LinearOps += other.LinearOps
	c.MultiValuePBS += other.MultiValuePBS
	c.MultiValueOuts += other.MultiValueOuts
}

// Reset zeroes all counters.
func (c *OpCounters) Reset() { *c = OpCounters{} }
