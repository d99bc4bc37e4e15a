package arch

import (
	"math"
	"testing"

	"repro/internal/cycle"
	"repro/internal/tfhe"
)

func mustModel(t *testing.T, cfg Config, p tfhe.Params) Model {
	t.Helper()
	m, err := NewModel(cfg, p)
	if err != nil {
		t.Fatalf("NewModel(%s): %v", p.Name, err)
	}
	return m
}

// within checks relative agreement.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > tol {
		t.Errorf("%s = %.4g, want %.4g (±%.0f%%), off by %.1f%%", name, got, want, tol*100, rel*100)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.BskChannels = 10 // 10+4+4 != 16
	if bad.Validate() == nil {
		t.Error("bad channel split should fail")
	}
	bad = DefaultConfig()
	bad.TvLP = 0
	if bad.Validate() == nil {
		t.Error("zero TvLP should fail")
	}
	bad = DefaultConfig()
	bad.FreqHz = -1
	if bad.Validate() == nil {
		t.Error("negative frequency should fail")
	}
}

func TestStageIntervalSetI(t *testing.T) {
	m := mustModel(t, DefaultConfig(), tfhe.ParamsI)
	// SI = ceil((k+1)·lb/PLP) · (N/2)/CLP = 2 · 128 = 256 cycles.
	if got := m.StageInterval(); got != 256 {
		t.Errorf("SI = %d, want 256", got)
	}
}

func TestStageIntervalAllSets(t *testing.T) {
	want := map[string]int64{"I": 256, "II": 384, "III": 768, "IV": 4096}
	for _, p := range tfhe.StandardSets() {
		m := mustModel(t, DefaultConfig(), p)
		if got := m.StageInterval(); got != want[p.Name] {
			t.Errorf("set %s: SI = %d, want %d", p.Name, got, want[p.Name])
		}
	}
}

// TestTableVStrix checks the headline result: Strix rows of Table V.
func TestTableVStrix(t *testing.T) {
	want := map[string]struct {
		latencyMs float64
		pbsPerSec float64
	}{
		"I":   {0.16, 74696},
		"II":  {0.23, 39600},
		"III": {0.44, 21104},
		"IV":  {3.31, 2368},
	}
	tolLat := map[string]float64{"I": 0.05, "II": 0.05, "III": 0.05, "IV": 0.18}
	for _, p := range tfhe.StandardSets() {
		m := mustModel(t, DefaultConfig(), p)
		w := want[p.Name]
		within(t, "set "+p.Name+" throughput", m.ThroughputPBS(), w.pbsPerSec, 0.02)
		within(t, "set "+p.Name+" latency", m.LatencySeconds()*1e3, w.latencyMs, tolLat[p.Name])
	}
}

// TestTableVIFolding checks the folding-ablation ratios.
func TestTableVIFolding(t *testing.T) {
	cfg := DefaultConfig()
	folded := mustModel(t, cfg, tfhe.ParamsI)
	cfg.Folded = false
	unfolded := mustModel(t, cfg, tfhe.ParamsI)

	within(t, "throughput ratio", folded.ThroughputPBS()/unfolded.ThroughputPBS(), 1.99, 0.03)
	within(t, "latency ratio", unfolded.LatencySeconds()/folded.LatencySeconds(), 1.68, 0.05)
	within(t, "unfolded throughput", unfolded.ThroughputPBS(), 37472, 0.02)
	within(t, "unfolded latency", unfolded.LatencySeconds()*1e3, 0.27, 0.05)

	am := AreaModel{Cfg: DefaultConfig(), P: tfhe.ParamsI}
	amNF := am
	amNF.Cfg.Folded = false
	within(t, "FFT area ratio", amNF.FFTUnitAreaMM2()/am.FFTUnitAreaMM2(), 1.73, 0.03)
	within(t, "core area ratio", amNF.CoreAreaMM2()/am.CoreAreaMM2(), 1.48, 0.06)
}

// TestTableVIITradeoff checks the TvLP/CLP sweep of Table VII.
func TestTableVIITradeoff(t *testing.T) {
	rows := []struct {
		tvlp, clp int
		pbs       float64
		latencyMs float64
	}{
		{16, 2, 2368, 7.2},
		{8, 4, 2368, 3.8},
		{4, 8, 2364, 3.8},
		{2, 16, 1240, 3.6},
		{1, 32, 620, 3.6},
	}
	for _, r := range rows {
		cfg := DefaultConfig().WithParallelism(r.tvlp, r.clp, 2, 2)
		m := mustModel(t, cfg, tfhe.ParamsIV)
		within(t, "TvLP/CLP throughput", m.ThroughputPBS(), r.pbs, 0.08)
		within(t, "TvLP/CLP latency", m.LatencySeconds()*1e3, r.latencyMs, 0.10)
	}
}

func TestTableVIIBandwidthMonotonic(t *testing.T) {
	// Required bandwidth must grow monotonically with CLP and cross the
	// 300 GB/s stack capacity between CLP=4 and CLP=8 (the paper's
	// compute/memory-bound crossover).
	var prev float64
	for _, r := range []struct{ tvlp, clp int }{{16, 2}, {8, 4}, {4, 8}, {2, 16}, {1, 32}} {
		cfg := DefaultConfig().WithParallelism(r.tvlp, r.clp, 2, 2)
		m := mustModel(t, cfg, tfhe.ParamsIV)
		bw := m.RequiredBandwidth() / 1e9
		if bw <= prev {
			t.Errorf("CLP=%d: bandwidth %v not increasing", r.clp, bw)
		}
		if r.clp <= 4 && bw > 300 {
			t.Errorf("CLP=%d should be within one HBM stack, needs %.0f GB/s", r.clp, bw)
		}
		if r.clp >= 8 && bw < 300 {
			t.Errorf("CLP=%d should exceed one HBM stack, needs %.0f GB/s", r.clp, bw)
		}
		prev = bw
	}
}

func TestMemoryBoundFlag(t *testing.T) {
	cfg := DefaultConfig().WithParallelism(1, 32, 2, 2)
	m := mustModel(t, cfg, tfhe.ParamsIV)
	if !m.Summary().MemoryBound {
		t.Error("TvLP=1/CLP=32 should be memory bound")
	}
	m = mustModel(t, DefaultConfig().WithParallelism(16, 2, 2, 2), tfhe.ParamsIV)
	if m.Summary().MemoryBound {
		t.Error("TvLP=16/CLP=2 should be compute bound")
	}
}

func TestKSHiddenBehindBR(t *testing.T) {
	for _, p := range tfhe.StandardSets() {
		m := mustModel(t, DefaultConfig(), p)
		if !m.KSHidden() {
			t.Errorf("set %s: keyswitching should hide behind blind rotation", p.Name)
		}
	}
}

func TestCoreBatchScratchpadCap(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.MaxCoreBatch(tfhe.ParamsIV); got != 2 {
		t.Errorf("set IV max core batch = %d, want 2 (0.625 MB / 256 KB double-buffered)", got)
	}
	if got := cfg.MaxCoreBatch(tfhe.ParamsI); got != 40 {
		t.Errorf("set I max core batch = %d, want 40", got)
	}
}

func TestModelRejectsTinyScratchpad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalScratchpadBytes = 1024 // cannot hold any test vector
	if _, err := NewModel(cfg, tfhe.ParamsIV); err == nil {
		t.Error("expected error for scratchpad too small for set IV")
	}
}

func TestCycleSimMatchesAnalytic(t *testing.T) {
	// The cycle-level simulator and the closed-form model must agree on
	// the steady-state blind-rotation time (within pipeline-fill slack).
	for _, p := range []tfhe.Params{tfhe.ParamsI, tfhe.ParamsII, tfhe.ParamsIII} {
		m := mustModel(t, DefaultConfig(), p)
		b := m.CoreBatch()
		sim := NewHSCSim(m)
		res, err := sim.SimulateBlindRotate(b, p.SmallN)
		if err != nil {
			t.Fatal(err)
		}
		analytic := float64(m.BlindRotateCycles(b))
		got := float64(res.Makespan)
		// Allow pipeline fill: a few stage intervals of slack.
		if math.Abs(got-analytic) > 8*float64(m.StageInterval())+64 {
			t.Errorf("set %s: cycle sim %v vs analytic %v", p.Name, got, analytic)
		}
	}
}

func TestCycleSimMemoryBoundStalls(t *testing.T) {
	// With CLP=32 on one core, the key stream paces iterations: the cycle
	// sim must slow down to the fetch rate.
	cfg := DefaultConfig().WithParallelism(1, 32, 2, 2)
	m := mustModel(t, cfg, tfhe.ParamsIV)
	sim := NewHSCSim(m)
	iters := 32
	res, err := sim.SimulateBlindRotate(1, iters)
	if err != nil {
		t.Fatal(err)
	}
	perIter := float64(res.Makespan) / float64(iters)
	fetch := float64(m.BskFetchCycles())
	if perIter < 0.9*fetch {
		t.Errorf("memory-bound per-iteration %v should approach fetch time %v", perIter, fetch)
	}
}

func TestFig8Utilizations(t *testing.T) {
	// Fig 8: with 3 LWEs per core on set I, decomposer/FFT/VMA/IFFT/
	// accumulator reach ~100% utilization, the rotator ~50%.
	m := mustModel(t, DefaultConfig(), tfhe.ParamsI)
	sim := NewHSCSim(m)
	iters := 20
	if _, err := sim.SimulateBlindRotate(3, iters); err != nil {
		t.Fatal(err)
	}
	// Steady-state window: skip the first two and last two iterations.
	si := m.StageInterval()
	from := 2 * 3 * si
	to := int64(iters-2) * 3 * si
	u := func(unit string) float64 {
		return sim.Trace.Utilization(unit, cycle.Time(from), cycle.Time(to))
	}
	for _, unit := range []string{UnitDecomposer, UnitFFT, UnitVMA, UnitIFFT, UnitAccum} {
		if got := u(unit); got < 0.95 {
			t.Errorf("%s utilization %.2f, want ~1.0", unit, got)
		}
	}
	if got := u(UnitRotator); got < 0.4 || got > 0.6 {
		t.Errorf("rotator utilization %.2f, want ~0.5", got)
	}
	if got := u(UnitScratchpad); got < 0.8 {
		t.Errorf("scratchpad utilization %.2f, want ~0.9", got)
	}
	if got := u(UnitHBM); got <= 0.1 || got > 1.0 {
		t.Errorf("HBM utilization %.2f, want busy but below saturation", got)
	}
}

func TestSimulateBlindRotateValidation(t *testing.T) {
	m := mustModel(t, DefaultConfig(), tfhe.ParamsIV)
	sim := NewHSCSim(m)
	if _, err := sim.SimulateBlindRotate(0, 1); err == nil {
		t.Error("batch 0 should error")
	}
	if _, err := sim.SimulateBlindRotate(100, 1); err == nil {
		t.Error("batch beyond scratchpad capacity should error")
	}
}

func TestChipRunPBSThroughput(t *testing.T) {
	m := mustModel(t, DefaultConfig(), tfhe.ParamsI)
	// A large batch should approach the model's sustained throughput.
	r, err := m.RunPBS(100000)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "chip sustained throughput", r.ThroughputPBS, m.ThroughputPBS(), 0.02)
}

func TestChipRunPBSSmall(t *testing.T) {
	m := mustModel(t, DefaultConfig(), tfhe.ParamsI)
	r, err := m.RunPBS(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs != 1 {
		t.Errorf("1 PBS = %d epochs, want 1", r.Epochs)
	}
	// One PBS on the chip costs at least the single-PBS latency.
	if r.Seconds < m.LatencySeconds()*0.9 {
		t.Errorf("single PBS %.3g s below latency %.3g s", r.Seconds, m.LatencySeconds())
	}
	zero, err := m.RunPBS(0)
	if err != nil || zero.Cycles != 0 {
		t.Errorf("RunPBS(0) = %+v, %v", zero, err)
	}
	if _, err := m.RunPBS(-1); err == nil {
		t.Error("negative count should error")
	}
}

func TestChipRunLayersSequential(t *testing.T) {
	m := mustModel(t, DefaultConfig(), tfhe.ParamsI)
	a, _ := m.RunPBS(92)
	layers, err := m.RunLayers([]int{92, 92, 92})
	if err != nil {
		t.Fatal(err)
	}
	if layers.Cycles != 3*a.Cycles {
		t.Errorf("3 dependent layers = %d cycles, want 3×%d", layers.Cycles, a.Cycles)
	}
}

func TestAreaModelTableIII(t *testing.T) {
	am := AreaModel{Cfg: DefaultConfig(), P: tfhe.ParamsI}
	within(t, "core area", am.CoreAreaMM2(), 9.38, 0.03)
	within(t, "chip area", am.ChipAreaMM2(), 141.37, 0.03)
	within(t, "core power", am.CorePowerW(), 6.21, 0.05)
	within(t, "chip power", am.ChipPowerW(), 77.14, 0.05)
	within(t, "FFT unit area", am.FFTUnitAreaMM2(), 1.81, 0.03)
}

func TestAreaBreakdownRows(t *testing.T) {
	am := AreaModel{Cfg: DefaultConfig(), P: tfhe.ParamsI}
	rows := am.Breakdown()
	if len(rows) != 12 {
		t.Fatalf("breakdown has %d rows, want 12", len(rows))
	}
	if rows[len(rows)-1].Component != "Total" {
		t.Error("last row should be Total")
	}
	var sum float64
	for _, r := range rows[:6] {
		sum += r.AreaMM2
	}
	within(t, "component sum vs core", sum, rows[6].AreaMM2, 0.02)
}

func TestFFTModelInitiationInterval(t *testing.T) {
	f := FFTUnitModel{Points: 512, CLP: 4}
	// 512 points are log2 512 = 9 stages of CLP/2 = 2 butterfly units.
	if f.Stages() != 9 {
		t.Errorf("stages = %d, want 9", f.Stages())
	}
	if f.BFUs() != 18 {
		t.Errorf("BFUs = %d, want 18", f.BFUs())
	}
}

func TestWithParallelismPreservesProduct(t *testing.T) {
	base := DefaultConfig()
	for _, r := range []struct{ tvlp, clp int }{{16, 2}, {8, 4}, {4, 8}, {2, 16}, {1, 32}} {
		c := base.WithParallelism(r.tvlp, r.clp, 2, 2)
		if c.TvLP*c.CLP != 32 {
			t.Errorf("TvLP·CLP = %d, want 32", c.TvLP*c.CLP)
		}
	}
}
