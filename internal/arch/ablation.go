package arch

import (
	"fmt"

	"repro/internal/tfhe"
)

// Ablation models for three design choices: bootstrapping key unrolling
// (the Matcha approach §VII, traded against Strix's two-level batching),
// the core-level batch size, and the external bandwidth provision.

// UnrolledGGSWCount is how many GGSW ciphertexts the factor-2 unrolled
// key holds per iteration, against one in the standard key. Bootstrapping
// key unrolling (BKU, §VII of the Strix paper, the technique Matcha [18]
// takes from Bourse et al. [51]) folds two LWE key bits into one
// iteration with
//
//	X^(a1·s1 + a2·s2) = 1 + s1(1−s2)(X^a1 − 1)
//	                      + (1−s1)s2(X^a2 − 1)
//	                      + s1·s2(X^(a1+a2) − 1),
//
// so each iteration takes three external products, with GGSW encryptions
// of s1(1−s2), (1−s1)s2 and s1·s2: the serial iteration count halves,
// while the key and the work per iteration grow 1.5×.
const UnrolledGGSWCount = 3

// UnrolledModel extends Model with factor-2 bootstrapping-key unrolling:
// ceil(n/2) serial iterations, UnrolledGGSWCount external products (and
// 1.5× key bytes) per iteration.
type UnrolledModel struct {
	Model
}

// NewUnrolledModel builds the unrolled variant.
func NewUnrolledModel(cfg Config, p tfhe.Params) (UnrolledModel, error) {
	m, err := NewModel(cfg, p)
	if err != nil {
		return UnrolledModel{}, err
	}
	return UnrolledModel{Model: m}, nil
}

// Iterations returns the serial blind-rotation iteration count.
func (u UnrolledModel) Iterations() int { return (u.P.SmallN + 1) / 2 }

// StageInterval returns the per-LWE per-iteration interval: three external
// products' worth of transforms spread over the PLP units.
func (u UnrolledModel) StageInterval() int64 {
	polys := UnrolledGGSWCount * (u.P.K + 1) * u.P.PBSLevel
	rounds := (polys + u.Cfg.PLP - 1) / u.Cfg.PLP
	return int64(rounds) * u.FFTCyclesPerPoly()
}

// BskBytesPerIter returns the key bytes streamed per unrolled iteration:
// three GGSWs instead of one.
func (u UnrolledModel) BskBytesPerIter() int64 {
	return UnrolledGGSWCount * u.Model.BskBytesPerIter()
}

// LatencyCycles returns single-PBS latency with unrolling.
func (u UnrolledModel) LatencyCycles() int64 {
	si := u.StageInterval()
	fetch := u.bskFetchCyclesUnrolled()
	iter := si
	if fetch > iter {
		iter = fetch
	}
	return int64(u.Iterations())*iter + u.KSCyclesPerLWE()
}

// bskFetchCyclesUnrolled is the streaming time of one unrolled iteration's
// key (3 GGSWs).
func (u UnrolledModel) bskFetchCyclesUnrolled() int64 {
	secs := float64(u.BskBytesPerIter()) / u.Cfg.bskBytesPerSec()
	return int64(secs * u.Cfg.FreqHz)
}

// ThroughputPBS returns sustained PBS/s with unrolling.
func (u UnrolledModel) ThroughputPBS() float64 {
	b := u.CoreBatchUnrolled()
	si := u.StageInterval()
	iter := int64(b) * si
	if f := u.bskFetchCyclesUnrolled(); f > iter {
		iter = f
	}
	cycles := int64(u.Iterations()) * iter
	return float64(b) / (float64(cycles) / u.Cfg.FreqHz) * float64(u.Cfg.TvLP)
}

// CoreBatchUnrolled mirrors Model.CoreBatch for the unrolled intervals.
func (u UnrolledModel) CoreBatchUnrolled() int {
	maxB := u.Cfg.MaxCoreBatch(u.P)
	si := u.StageInterval()
	need := int((u.bskFetchCyclesUnrolled() + si - 1) / si)
	if need < 1 {
		need = 1
	}
	if need > maxB {
		need = maxB
	}
	return need
}

// KeyBytesTotal returns the full unrolled key size (1.5× standard).
func (u UnrolledModel) KeyBytesTotal() int64 {
	return int64(u.Iterations()) * u.BskBytesPerIter()
}

// UnrollingComparison reports standard vs unrolled Strix for a config.
type UnrollingComparison struct {
	Set                string
	StdLatencyMs       float64
	UnrolledLatencyMs  float64
	StdThroughput      float64
	UnrolledThroughput float64
	KeyBytesRatio      float64
}

// CompareUnrolling evaluates the BKU trade-off on one configuration.
func CompareUnrolling(cfg Config, p tfhe.Params) (UnrollingComparison, error) {
	std, err := NewModel(cfg, p)
	if err != nil {
		return UnrollingComparison{}, err
	}
	unr, err := NewUnrolledModel(cfg, p)
	if err != nil {
		return UnrollingComparison{}, err
	}
	stdKeyBytes := std.BskBytesPerIter() * int64(p.SmallN)
	return UnrollingComparison{
		Set:                p.Name,
		StdLatencyMs:       std.LatencySeconds() * 1e3,
		UnrolledLatencyMs:  float64(unr.LatencyCycles()) / cfg.FreqHz * 1e3,
		StdThroughput:      std.ThroughputPBS(),
		UnrolledThroughput: unr.ThroughputPBS(),
		KeyBytesRatio:      float64(unr.KeyBytesTotal()) / float64(stdKeyBytes),
	}, nil
}

// CoreBatchSweep reports throughput and latency as the core-level batch
// size grows — the ablation behind the paper's core-level batching claim.
type CoreBatchPoint struct {
	Batch         int
	ThroughputPBS float64
	LatencyMs     float64 // completion of the whole batch on one core
}

// SweepCoreBatch evaluates batches 1..maxB (capped by the scratchpad).
func SweepCoreBatch(cfg Config, p tfhe.Params, maxB int) ([]CoreBatchPoint, error) {
	m, err := NewModel(cfg, p)
	if err != nil {
		return nil, err
	}
	cap := cfg.MaxCoreBatch(p)
	if maxB > cap {
		maxB = cap
	}
	var out []CoreBatchPoint
	for b := 1; b <= maxB; b++ {
		cycles := m.BlindRotateCycles(b)
		secs := float64(cycles) / cfg.FreqHz
		out = append(out, CoreBatchPoint{
			Batch:         b,
			ThroughputPBS: float64(b*cfg.TvLP) / secs,
			LatencyMs:     secs * 1e3,
		})
	}
	return out, nil
}

// BandwidthPoint is one sample of the HBM bandwidth sweep.
type BandwidthPoint struct {
	GBs           float64
	ThroughputPBS float64
	MemoryBound   bool
}

// SweepBandwidth evaluates throughput as the external bandwidth varies —
// quantifying the paper's claim that one 300 GB/s stack suffices at
// TvLP=8/CLP=4 while CKKS accelerators need 1 TB/s.
func SweepBandwidth(cfg Config, p tfhe.Params, gbs []float64) ([]BandwidthPoint, error) {
	var out []BandwidthPoint
	for _, bw := range gbs {
		c := cfg
		c.HBMBytesPerSec = bw * 1e9
		m, err := NewModel(c, p)
		if err != nil {
			return nil, err
		}
		s := m.Summary()
		out = append(out, BandwidthPoint{GBs: bw, ThroughputPBS: s.ThroughputPBS, MemoryBound: s.MemoryBound})
	}
	return out, nil
}

// String implements fmt.Stringer for quick logging.
func (c UnrollingComparison) String() string {
	return fmt.Sprintf("set %s: latency %.3f→%.3f ms, throughput %.0f→%.0f PBS/s, key ×%.2f",
		c.Set, c.StdLatencyMs, c.UnrolledLatencyMs, c.StdThroughput, c.UnrolledThroughput, c.KeyBytesRatio)
}
