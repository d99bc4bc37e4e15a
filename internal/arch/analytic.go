package arch

import (
	"fmt"
	"math"

	"repro/internal/tfhe"
)

// Model is the closed-form performance model of one Strix configuration
// running one TFHE parameter set. It encodes the unit throughputs of §V:
// every PBS-cluster unit is balanced to consume/produce 2·CLP·CoLP
// coefficients per cycle, so the steady-state initiation interval per LWE
// per blind-rotation iteration is
//
//	SI = ceil((k+1)·lb / PLP) · Npoint / CLP   cycles,
//
// where Npoint is N/2 with the folding scheme and N without it. The model
// and the cycle simulator (hsc.go) are property-tested against each other.
type Model struct {
	Cfg Config
	P   tfhe.Params
}

// NewModel validates and builds a model.
func NewModel(cfg Config, p tfhe.Params) (Model, error) {
	if err := cfg.Validate(); err != nil {
		return Model{}, err
	}
	if err := p.Validate(); err != nil {
		return Model{}, err
	}
	if cfg.MaxCoreBatch(p) < 1 {
		return Model{}, fmt.Errorf("arch: local scratchpad (%d B) cannot hold one %s test vector",
			cfg.LocalScratchpadBytes, p.Name)
	}
	return Model{Cfg: cfg, P: p}, nil
}

// FFTPoints returns the FFT length per polynomial: N/2 folded, N unfolded.
func (m Model) FFTPoints() int {
	if m.Cfg.Folded {
		return m.P.N / 2
	}
	return m.P.N
}

// FFTCyclesPerPoly returns the streaming cost of transforming one
// polynomial on one (I)FFT unit: points / CLP cycles.
func (m Model) FFTCyclesPerPoly() int64 {
	return int64(m.FFTPoints() / m.Cfg.CLP)
}

// StageInterval returns SI: the pipeline initiation interval in cycles for
// one LWE in one blind-rotation iteration. The FFT stage is the pacing
// unit: (k+1)·lb polynomials spread over PLP units.
func (m Model) StageInterval() int64 {
	polys := (m.P.K + 1) * m.P.PBSLevel
	rounds := (polys + m.Cfg.PLP - 1) / m.Cfg.PLP
	return int64(rounds) * m.FFTCyclesPerPoly()
}

// BskBytesPerIter returns the bootstrapping-key bytes streamed per
// blind-rotation iteration: one GGSW of (k+1)·lb·(k+1) Fourier polynomials.
func (m Model) BskBytesPerIter() int64 {
	polys := int64(m.P.K+1) * int64(m.P.PBSLevel) * int64(m.P.K+1)
	return polys * int64(m.P.N/2) * int64(m.Cfg.BskComplexBytes)
}

// BskFetchCycles returns the cycles needed to stream one iteration's
// bootstrapping key over the bsk channel share.
func (m Model) BskFetchCycles() int64 {
	secs := float64(m.BskBytesPerIter()) / m.Cfg.bskBytesPerSec()
	return int64(math.Ceil(secs * m.Cfg.FreqHz))
}

// CoreBatch returns the effective core-level batch size: the configured
// value, or the smallest batch that hides the key fetch behind compute
// (capped by the local scratchpad).
func (m Model) CoreBatch() int {
	maxB := m.Cfg.MaxCoreBatch(m.P)
	if m.Cfg.CoreBatch > 0 {
		if m.Cfg.CoreBatch > maxB {
			return maxB
		}
		return m.Cfg.CoreBatch
	}
	si := m.StageInterval()
	need := int((m.BskFetchCycles() + si - 1) / si)
	if need < 1 {
		need = 1
	}
	if need > maxB {
		need = maxB
	}
	return need
}

// IterIntervalCycles returns the steady-state cycles per blind-rotation
// iteration for a core batch of B LWEs: compute (B·SI) or key streaming,
// whichever dominates (the compute-bound/memory-bound crossover of §VI-C).
func (m Model) IterIntervalCycles(b int) int64 {
	compute := int64(b) * m.StageInterval()
	fetch := m.BskFetchCycles()
	if fetch > compute {
		return fetch
	}
	return compute
}

// BlindRotateCycles returns cycles for a full blind rotation of a core
// batch of B LWEs: n iterations at the steady-state interval.
func (m Model) BlindRotateCycles(b int) int64 {
	return int64(m.P.SmallN) * m.IterIntervalCycles(b)
}

// KSCyclesPerLWE returns the keyswitch-cluster cycles for one LWE:
// k·N·lk·(n+1) multiply-accumulates at KSCLP·KSCoLP MACs per cycle.
func (m Model) KSCyclesPerLWE() int64 {
	macs := int64(m.P.ExtractedN()) * int64(m.P.KSLevel) * int64(m.P.SmallN+1)
	rate := int64(m.Cfg.KSCLP * m.Cfg.KSCoLP)
	return (macs + rate - 1) / rate
}

// LatencyCycles returns the single-PBS latency in cycles: one LWE through
// blind rotation (batch 1) plus keyswitching (Table V methodology).
func (m Model) LatencyCycles() int64 {
	return m.BlindRotateCycles(1) + m.KSCyclesPerLWE()
}

// LatencySeconds converts LatencyCycles to seconds.
func (m Model) LatencySeconds() float64 {
	return float64(m.LatencyCycles()) / m.Cfg.FreqHz
}

// ThroughputPBS returns sustained PBS/s with both batching levels active:
// TvLP cores each complete a core batch every n·IterInterval cycles, with
// keyswitching hidden behind the next epoch's blind rotation (§IV-C).
func (m Model) ThroughputPBS() float64 {
	b := m.CoreBatch()
	cycles := m.BlindRotateCycles(b)
	perCore := float64(b) / (float64(cycles) / m.Cfg.FreqHz)
	return perCore * float64(m.Cfg.TvLP)
}

// KSHidden reports whether keyswitching is fully hidden behind the next
// blind rotation (KS time for a core batch <= BR time for a core batch).
func (m Model) KSHidden() bool {
	b := int64(m.CoreBatch())
	return b*m.KSCyclesPerLWE() <= m.BlindRotateCycles(int(b))
}

// KskBytesTotal returns the keyswitching-key size streamed per epoch.
func (m Model) KskBytesTotal() int64 {
	return int64(m.P.ExtractedN()) * int64(m.P.KSLevel) * int64(m.P.SmallN+1) * 4
}

// RequiredBandwidth returns the sustained external bandwidth (bytes/s) the
// configuration demands to stay compute-bound at core batch 1 — the
// "Required Bandwidth" column of Table VII: bootstrapping-key streaming at
// the compute rate, plus keyswitching-key streaming per epoch, plus
// ciphertext traffic.
func (m Model) RequiredBandwidth() float64 {
	si := float64(m.StageInterval()) / m.Cfg.FreqHz
	bsk := float64(m.BskBytesPerIter()) / si

	epoch := float64(m.P.SmallN) * si
	ksk := float64(m.KskBytesTotal()) / epoch

	// Ciphertext traffic: per epoch, TvLP LWEs in (n+1 words) and out
	// (n+1 words after KS), plus the initial test vectors ((k+1)·N words).
	ctBytes := float64(m.Cfg.TvLP) * float64((m.P.SmallN+1)*2*4+(m.P.K+1)*m.P.N*4)
	ct := ctBytes / epoch

	return bsk + ksk + ct
}

// PerfSummary bundles the headline numbers for reporting.
type PerfSummary struct {
	Set             string
	TvLP, CLP       int
	CoreBatch       int
	LatencyMs       float64
	ThroughputPBS   float64
	RequiredBWGBs   float64
	MemoryBound     bool
	StageInterval   int64
	BskFetchCycles  int64
	KSCyclesPerLWE  int64
	KSHiddenFully   bool
	BRCyclesBatch   int64
	EpochLWECount   int
	LatencyCycles64 int64
}

// Summary computes the PerfSummary for the model.
func (m Model) Summary() PerfSummary {
	b := m.CoreBatch()
	return PerfSummary{
		Set:             m.P.Name,
		TvLP:            m.Cfg.TvLP,
		CLP:             m.Cfg.CLP,
		CoreBatch:       b,
		LatencyMs:       m.LatencySeconds() * 1e3,
		ThroughputPBS:   m.ThroughputPBS(),
		RequiredBWGBs:   m.RequiredBandwidth() / 1e9,
		MemoryBound:     m.BskFetchCycles() > int64(b)*m.StageInterval(),
		StageInterval:   m.StageInterval(),
		BskFetchCycles:  m.BskFetchCycles(),
		KSCyclesPerLWE:  m.KSCyclesPerLWE(),
		KSHiddenFully:   m.KSHidden(),
		BRCyclesBatch:   m.BlindRotateCycles(b),
		EpochLWECount:   b * m.Cfg.TvLP,
		LatencyCycles64: m.LatencyCycles(),
	}
}
