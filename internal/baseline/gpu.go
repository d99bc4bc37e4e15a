package baseline

import (
	"fmt"
	"math"
)

// GPUModel models NuFHE on a 72-SM GPU (Titan RTX). Its central behaviour
// is *device-level batching with blind-rotation fragmentation* (§III):
// every SM executes one ciphertext's blind rotation and all SMs share the
// iteration's bootstrapping key, so execution time is flat up to 72
// ciphertexts and then steps — equations (1) and (2) of the paper:
//
//	total = (#fragments + 1) · BR-time-per-core,
//	#fragments = ceil(#ciphertexts / batch) − 1.
type GPUModel struct {
	SMs int // device-level batch size (cores)

	// BatchMs maps parameter-set name to the time of one fully-batched
	// blind-rotation pass (all SMs busy), calibrated to Table V:
	// set I sustains 2000 PBS/s → 72 PBS per 36 ms batch.
	BatchMs map[string]float64

	// LaunchOverheadMs is the fixed kernel-launch/transfer overhead added
	// to a single-batch latency (Table V reports 37 ms for one PBS).
	LaunchOverheadMs float64

	// LatencyOverrideMs holds per-set single-PBS latencies that do not
	// follow the batch model: NuFHE's set II path serializes the whole
	// blind rotation through the FFT kernel (Table V: 700 ms).
	LatencyOverrideMs map[string]float64
}

// NewGPUModel returns the Table V-calibrated NuFHE model. NuFHE supports
// N=1024 only (sets I and II); set II falls back to a sequential FFT-kernel
// path that is dramatically slower (the paper's explanation of the 700 ms
// row).
func NewGPUModel() GPUModel {
	return GPUModel{
		SMs: 72,
		BatchMs: map[string]float64{
			"I":  36.0,
			"II": 144.0, // sequential FFT-kernel fallback, see §VI-C
		},
		LaunchOverheadMs:  1.0,
		LatencyOverrideMs: map[string]float64{"II": 700.0},
	}
}

// batchTime returns the per-batch blind rotation time for a set.
func (g GPUModel) batchTime(set string) (float64, error) {
	ms, ok := g.BatchMs[set]
	if !ok {
		return 0, fmt.Errorf("baseline: NuFHE does not support parameter set %q (N=1024 only)", set)
	}
	return ms, nil
}

// Fragments returns the blind-rotation fragment count for a ciphertext
// count — equation (2).
func (g GPUModel) Fragments(ciphertexts int) int {
	if ciphertexts <= 0 {
		return 0
	}
	return (ciphertexts+g.SMs-1)/g.SMs - 1
}

// RunPBS returns the execution time in seconds for count PBS operations —
// equation (1).
func (g GPUModel) RunPBS(set string, count int) (float64, error) {
	if count == 0 {
		return 0, nil
	}
	bt, err := g.batchTime(set)
	if err != nil {
		return 0, err
	}
	frag := g.Fragments(count)
	return (float64(frag+1)*bt + g.LaunchOverheadMs) / 1e3, nil
}

// PBSLatencyMs returns the single-PBS latency (one batch + overhead, or
// the per-set override for execution paths outside the batch model).
func (g GPUModel) PBSLatencyMs(set string) (float64, error) {
	if ms, ok := g.LatencyOverrideMs[set]; ok {
		return ms, nil
	}
	bt, err := g.batchTime(set)
	if err != nil {
		return 0, err
	}
	return bt + g.LaunchOverheadMs, nil
}

// ThroughputPBS returns the sustained PBS/s with full batches.
func (g GPUModel) ThroughputPBS(set string) (float64, error) {
	bt, err := g.batchTime(set)
	if err != nil {
		return 0, err
	}
	return float64(g.SMs) / (bt / 1e3), nil
}

// ScaledBatchMs extrapolates the per-batch time to a different polynomial
// degree (used by the Fig 7 neural-network experiment, which runs
// N = 1024/2048/4096). NuFHE's blind-rotation kernel was measured at
// N=1024 only; the per-SM FFT work scales as N·log2(N), which is the
// scaling applied here. (The n and lb dependence is already inside the
// measured kernel shape; the paper likewise extrapolates its GPU bars for
// N > 1024.)
func (g GPUModel) ScaledBatchMs(baseSet string, baseN, n2 int) (float64, error) {
	bt, err := g.batchTime(baseSet)
	if err != nil {
		return 0, err
	}
	work := func(n int) float64 { return float64(n) * math.Log2(float64(n)) }
	return bt * work(n2) / work(baseN), nil
}
