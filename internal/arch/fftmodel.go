package arch

import "math"

// Hardware cost model of the pipelined (I)FFT unit of §V-A / Fig 5: a
// log2(M)-stage feed-forward pipeline with CLP/2 butterfly units (BFUs) per
// stage, shuffle units (SHUs) with delay lines between stages, and a
// twiddle ROM per stage. Delay-line storage dominates for large M; the
// per-BFU and per-delay-slot constants are calibrated so the model
// reproduces the paper's Table VI FFT-unit areas (1.81 mm² folded / 8192
// points, 3.13 mm² unfolded / 16384 points at CLP=4).
const (
	fftAreaPerBFUMM2       = 0.0201    // one butterfly (complex mul + add/sub)
	fftAreaPerDelaySlotMM2 = 1.5649e-4 // one complex delay-line slot (8 B)
	fftAreaPerTwiddleMM2   = 0.002     // per-stage twiddle ROM
)

// FFTUnitModel describes one pipelined FFT unit instance.
type FFTUnitModel struct {
	Points int // M-point transform
	CLP    int // input lanes (coefficients per cycle)
}

// Stages returns the number of butterfly stages, log2(M).
func (f FFTUnitModel) Stages() int {
	return int(math.Round(math.Log2(float64(f.Points))))
}

// BFUs returns the total butterfly units: CLP/2 per stage.
func (f FFTUnitModel) BFUs() int {
	per := f.CLP / 2
	if per < 1 {
		per = 1
	}
	return per * f.Stages()
}

// DelaySlots returns the total delay-line storage (complex words) across
// all shuffle units. A streaming M-point FFT at L lanes needs on the order
// of M complex words of reorder storage in total (the sum of SHU delays
// 2·(M/2 + M/4 + ... + 1) per lane pair ≈ M).
func (f FFTUnitModel) DelaySlots() int {
	return f.Points
}

// AreaMM2 returns the modeled area of the unit.
func (f FFTUnitModel) AreaMM2() float64 {
	return float64(f.BFUs())*fftAreaPerBFUMM2 +
		float64(f.DelaySlots())*fftAreaPerDelaySlotMM2 +
		float64(f.Stages())*fftAreaPerTwiddleMM2
}

// fftUnitArea is the helper used by the area model.
func fftUnitArea(points, clp int) float64 {
	return FFTUnitModel{Points: points, CLP: clp}.AreaMM2()
}
