package baseline

import (
	"fmt"

	"repro/internal/tfhe"
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

// RunPBS returns the execution time in ms of count independent PBS when
// one fully batched blind-rotation pass takes batchMs — equation (1) with
// the kernel-launch overhead:
//
//	total = (#fragments + 1) · batchMs + launch.
func (g GPUModel) RunPBS(batchMs float64, count int) float64 {
	if count <= 0 {
		return 0
	}
	return float64(g.Fragments(count)+1)*batchMs + g.LaunchOverheadMs
}

// RunLayers returns the execution time in ms of dependent layers of PBS at
// p's polynomial degree (the Fig 7 neural networks run N = 1024/2048/4096):
// one RunPBS per layer with set I's measured kernel extrapolated to p.N.
// NuFHE's blind-rotation kernel was measured at N=1024 only; the n and lb
// dependence is already inside the measured kernel shape, and the paper
// likewise extrapolates its GPU bars for N > 1024.
func (g GPUModel) RunLayers(p tfhe.Params, layers []int) (float64, error) {
	bt, err := g.batchTime(tfhe.ParamsI.Name)
	if err != nil {
		return 0, err
	}
	batchMs := fftScaled(bt, tfhe.ParamsI.N, p.N)
	var ms float64
	for _, l := range layers {
		ms += g.RunPBS(batchMs, l)
	}
	return ms, nil
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
	return g.RunPBS(bt, 1), nil
}

// ThroughputPBS returns the sustained PBS/s with full batches.
func (g GPUModel) ThroughputPBS(set string) (float64, error) {
	bt, err := g.batchTime(set)
	if err != nil {
		return 0, err
	}
	return float64(g.SMs) / (bt / 1e3), nil
}
