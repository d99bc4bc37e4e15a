package arch

import (
	"fmt"

	"repro/internal/cycle"
)

// Unit names used in traces (Fig 8 rows).
const (
	UnitRotator    = "Rotator"
	UnitDecomposer = "Decomp."
	UnitFFT        = "FFT"
	UnitVMA        = "VMA"
	UnitIFFT       = "IFFT"
	UnitAccum      = "Accum."
	UnitScratchpad = "Loc. Scrtpd."
	UnitHBM        = "HBM"
)

// HSCSim is the cycle-level simulator of one Homomorphic Streaming Core
// executing blind rotation on a core-level batch of LWEs. Every polynomial
// is scheduled through the six-stage PBS-cluster pipeline (rotator →
// decomposer → FFT → VMA → IFFT → accumulator), with bootstrapping-key
// prefetch over the core's HBM channel share, reproducing the timing
// behaviour of Fig 8.
type HSCSim struct {
	Model Model
	Trace *cycle.Trace

	rotator, decomp, fftU, vma, ifftU, accum *cycle.Resource
	hbm                                      *cycle.Resource
}

// NewHSCSim builds a simulator (with trace recording) for the model.
func NewHSCSim(m Model) *HSCSim {
	tr := &cycle.Trace{}
	fftLat := cycle.Time(m.FFTCyclesPerPoly())
	s := &HSCSim{
		Model:   m,
		Trace:   tr,
		rotator: cycle.NewResource(UnitRotator, 4, tr),
		decomp:  cycle.NewResource(UnitDecomposer, cycle.Time(m.P.PBSLevel)+4, tr),
		fftU:    cycle.NewResource(UnitFFT, fftLat, tr),
		vma:     cycle.NewResource(UnitVMA, 8, tr),
		ifftU:   cycle.NewResource(UnitIFFT, fftLat, tr),
		accum:   cycle.NewResource(UnitAccum, 4, tr),
		hbm:     cycle.NewResource(UnitHBM, 0, tr),
	}
	return s
}

// coefRate returns aggregate coefficients/cycle for the 2·CLP-lane units
// replicated CoLP times (halved without folding, which needs only CLP
// lanes to match the unfolded FFT).
func (s *HSCSim) coefRate() int64 {
	lanes := 2 * s.Model.Cfg.CLP
	if !s.Model.Cfg.Folded {
		lanes = s.Model.Cfg.CLP
	}
	return int64(lanes * s.Model.Cfg.CoLP)
}

// Occupancies per LWE per iteration (cycles), per §V.
func (s *HSCSim) rotOcc() cycle.Time {
	return cycle.Time(int64((s.Model.P.K+1)*s.Model.P.N) / s.coefRate())
}

func (s *HSCSim) decOcc() cycle.Time {
	return cycle.Time(int64((s.Model.P.K+1)*s.Model.P.N) / (s.coefRate() / int64(s.Model.Cfg.CoLP)))
}

func (s *HSCSim) fftOcc() cycle.Time { return cycle.Time(s.Model.StageInterval()) }

func (s *HSCSim) vmaOcc() cycle.Time {
	products := int64((s.Model.P.K + 1) * s.Model.P.PBSLevel * (s.Model.P.K + 1))
	points := int64(s.Model.FFTPoints())
	rate := int64(2 * s.Model.Cfg.CLP * s.Model.Cfg.PLP) // dual multipliers per lane
	return cycle.Time(products * points / rate)
}

func (s *HSCSim) accOcc() cycle.Time {
	polys := int64((s.Model.P.K + 1) * s.Model.P.PBSLevel)
	return cycle.Time(polys * int64(s.Model.P.N) / s.coefRate())
}

// BlindRotateResult reports a simulated blind rotation.
type BlindRotateResult struct {
	Batch      int
	Iterations int
	Makespan   cycle.Time // cycles until the last accumulator write
	AccDone    []cycle.Time
}

// SimulateBlindRotate schedules a core batch of b LWEs through iters
// blind-rotation iterations and returns per-LWE completion times. The
// bootstrapping key for iteration 0 is assumed preloaded into the (double
// buffered) global scratchpad; subsequent iterations' keys are prefetched
// over HBM and the VMA stage stalls if streaming falls behind.
func (s *HSCSim) SimulateBlindRotate(b, iters int) (BlindRotateResult, error) {
	if b < 1 || iters < 1 {
		return BlindRotateResult{}, fmt.Errorf("arch: batch %d and iterations %d must be >= 1", b, iters)
	}
	if maxB := s.Model.Cfg.MaxCoreBatch(s.Model.P); b > maxB {
		return BlindRotateResult{}, fmt.Errorf("arch: core batch %d exceeds local scratchpad capacity (max %d for set %s)",
			b, maxB, s.Model.P.Name)
	}
	m := s.Model
	fetch := cycle.Time(m.BskFetchCycles())
	rotOcc, decOcc, fftOcc, vmaOcc, accOcc := s.rotOcc(), s.decOcc(), s.fftOcc(), s.vmaOcc(), s.accOcc()
	rotLat := s.rotator.Latency
	decLat := s.decomp.Latency
	fftLat := s.fftU.Latency
	vmaLat := s.vma.Latency
	ifftLat := s.ifftU.Latency

	// nextReady[j] is when iteration i+1's rotator may start on LWE j.
	// The local scratchpad is banked so rotator reads chase accumulator
	// writes (cut-through): Fig 8 shows back-to-back iterations with no
	// inter-iteration bubble, which requires this forwarding.
	const forwardLat = 16
	nextReady := make([]cycle.Time, b)
	accDone := make([]cycle.Time, b)
	fetchDone := cycle.Time(0) // key for iteration 0 is resident
	var makespan cycle.Time

	for i := 0; i < iters; i++ {
		var firstVMA cycle.Time = -1
		thisFetchDone := fetchDone
		for j := 0; j < b; j++ {
			label := fmt.Sprintf("%d", j+1)
			rs, _ := s.rotator.Claim(nextReady[j], rotOcc, label)
			s.Trace.Record(UnitScratchpad, label, rs, rs+rotOcc)
			ds, _ := s.decomp.Claim(rs+rotLat, decOcc, label)
			fs, _ := s.fftU.Claim(ds+decLat, fftOcc, label)
			ready := fs + fftLat
			if thisFetchDone > ready {
				ready = thisFetchDone
			}
			vs, _ := s.vma.Claim(ready, vmaOcc, label)
			if firstVMA < 0 {
				firstVMA = vs
			}
			is, _ := s.ifftU.Claim(vs+vmaLat, fftOcc, label)
			as, ad := s.accum.Claim(is+ifftLat, accOcc, label)
			s.Trace.Record(UnitScratchpad, label, as, as+accOcc)
			nextReady[j] = as + forwardLat
			accDone[j] = ad
			if ad > makespan {
				makespan = ad
			}
		}
		// Prefetch the next iteration's key (double buffering: the fetch
		// may start as soon as this iteration began consuming its key).
		if i+1 < iters {
			start := firstVMA
			if s.hbm.NextFree() > start {
				start = s.hbm.NextFree()
			}
			_, done := s.hbm.Claim(start, fetch, "key")
			fetchDone = done
		}
	}
	return BlindRotateResult{Batch: b, Iterations: iters, Makespan: makespan, AccDone: accDone}, nil
}
