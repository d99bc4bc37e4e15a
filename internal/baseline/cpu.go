package baseline

import (
	"fmt"

	"repro/internal/tfhe"
)

// CPUModel models single-thread Concrete executing TFHE. Per-set PBS+KS
// latencies are calibrated to the paper's Table V CPU rows; the
// within-operation breakdown is derived from the *functional* library's
// operation counters (internal/tfhe), not hard-coded, so Fig 1 is a real
// measurement of the algorithm we implement.
type CPUModel struct {
	// GateMs maps parameter-set name to the measured per-gate
	// (PBS+KS+linear) latency in milliseconds.
	GateMs map[string]float64
	// Threads models farm parallelism across independent PBS operations
	// (1 = the Table V microbenchmark configuration).
	Threads int
}

// NewCPUModel returns the Table V-calibrated CPU model.
func NewCPUModel() CPUModel {
	return CPUModel{
		GateMs:  map[string]float64{"I": 14.0, "II": 19.0, "III": 38.0, "IV": 969.0},
		Threads: 1,
	}
}

// PBSLatencyMs returns the single-PBS latency for a parameter set.
func (c CPUModel) PBSLatencyMs(set string) (float64, error) {
	ms, ok := c.GateMs[set]
	if !ok {
		return 0, fmt.Errorf("baseline: CPU model has no calibration for set %q", set)
	}
	return ms, nil
}

// ThroughputPBS returns PBS/s (serial execution: 1/latency per thread).
func (c CPUModel) ThroughputPBS(set string) (float64, error) {
	ms, err := c.PBSLatencyMs(set)
	if err != nil {
		return 0, err
	}
	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	return float64(threads) * 1000.0 / ms, nil
}

// CostWeights are relative per-element CPU costs used to convert operation
// counts into a time breakdown (arbitrary units; only ratios matter).
// An FFT of M points costs M·log2(M) units; scalar ops cost 1.
type CostWeights struct {
	FFTPointLog  float64 // per (point × log2 point) of a transform
	VMAMul       float64 // per complex multiply-accumulate
	RotateCoeff  float64 // per coefficient rotated
	DecompCoeff  float64 // per coefficient decomposed
	AccumCoeff   float64 // per coefficient accumulated
	KSMac        float64 // per keyswitch multiply-accumulate
	KSDecomp     float64 // per keyswitch scalar decomposition
	ScalarLinear float64 // per scalar linear-op element
}

// DefaultCostWeights reflect a scalar CPU implementation in which the
// transform butterflies and the keyswitch MACs dominate.
func DefaultCostWeights() CostWeights {
	return CostWeights{
		FFTPointLog:  1.0,
		VMAMul:       1.0,
		RotateCoeff:  0.25,
		DecompCoeff:  1.0,
		AccumCoeff:   0.25,
		KSMac:        2.75,
		KSDecomp:     2.0,
		ScalarLinear: 1.0,
	}
}

// Breakdown is the Fig 1 decomposition of one gate's CPU execution.
type Breakdown struct {
	// Top level (fractions of total, summing to 1).
	PBSFrac   float64
	KSFrac    float64
	OtherFrac float64
	// Within PBS.
	BlindRotateFrac float64 // of PBS time
	// Within one blind-rotation iteration.
	FFTFrac     float64
	VMAFrac     float64
	IFFTAccFrac float64
	DecompFrac  float64
	RotateFrac  float64
}

// GateBreakdown executes one real homomorphic gate with the functional
// library under the given (typically test-sized) parameters, converts the
// recorded operation counts to time with the cost weights, and returns the
// Fig 1 breakdown. The *structure* (which loops dominate) comes from the
// real algorithm; the weights only set relative scalar costs.
func GateBreakdown(p tfhe.Params, ev *tfhe.Evaluator, w CostWeights) Breakdown {
	c := ev.Counters

	m := float64(p.N / 2) // transform points
	logM := log2f(m)

	fft := float64(c.ForwardFFTs) * m * logM * w.FFTPointLog
	ifft := float64(c.InverseFFTs) * m * logM * w.FFTPointLog
	vma := float64(c.VMAMuls) * w.VMAMul
	rot := float64(c.Rotations) * float64((p.K+1)*p.N) * w.RotateCoeff
	dec := float64(c.Decompositions) * float64(p.N*p.PBSLevel) * w.DecompCoeff
	acc := float64(c.Accumulations) * w.AccumCoeff
	modswitch := float64(c.ModSwitches) * w.ScalarLinear
	extract := float64(c.SampleExtracts) * float64(p.ExtractedN()) * w.ScalarLinear

	pbs := fft + ifft + vma + rot + dec + acc + modswitch + extract
	ks := float64(c.KSMACs)*w.KSMac + float64(c.KSDecompScalar)*w.KSDecomp
	other := float64(c.LinearOps)*float64(p.SmallN+1)*w.ScalarLinear +
		0.05*(pbs+ks) // framework overhead (allocation, encoding)

	total := pbs + ks + other
	br := fft + ifft + vma + rot + dec + acc
	iter := br
	return Breakdown{
		PBSFrac:         pbs / total,
		KSFrac:          ks / total,
		OtherFrac:       other / total,
		BlindRotateFrac: br / pbs,
		FFTFrac:         fft / iter,
		VMAFrac:         vma / iter,
		IFFTAccFrac:     (ifft + acc) / iter,
		DecompFrac:      dec / iter,
		RotateFrac:      rot / iter,
	}
}

func log2f(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}
