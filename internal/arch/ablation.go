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

// unrolledModel builds the factor-2 unrolled design: ⌈n/2⌉ serial
// iterations, each streaming and multiplying by UnrolledGGSWCount GGSWs.
func unrolledModel(cfg Config, p tfhe.Params) (Model, error) {
	m, err := NewModel(cfg, p)
	m.unrolled = true
	return m, err
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
	unr, err := unrolledModel(cfg, p)
	if err != nil {
		return UnrollingComparison{}, err
	}
	return UnrollingComparison{
		Set:                p.Name,
		StdLatencyMs:       std.LatencySeconds() * 1e3,
		UnrolledLatencyMs:  unr.LatencySeconds() * 1e3,
		StdThroughput:      std.ThroughputPBS(),
		UnrolledThroughput: unr.ThroughputPBS(),
		KeyBytesRatio:      float64(unr.bskBytesTotal()) / float64(std.bskBytesTotal()),
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
