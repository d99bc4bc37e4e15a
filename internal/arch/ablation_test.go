package arch

import (
	"testing"

	"repro/internal/tfhe"
)

func TestUnrollingHalvesIterations(t *testing.T) {
	u, err := unrolledModel(DefaultConfig(), tfhe.ParamsI)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.iterations(); got != 250 {
		t.Errorf("unrolled iterations = %d, want 250", got)
	}
}

func TestUnrollingKeyRatio(t *testing.T) {
	c, err := CompareUnrolling(DefaultConfig(), tfhe.ParamsI)
	if err != nil {
		t.Fatal(err)
	}
	if c.KeyBytesRatio < 1.45 || c.KeyBytesRatio > 1.55 {
		t.Errorf("key ratio %.2f, want ~1.5", c.KeyBytesRatio)
	}
}

func TestUnrollingHurtsAtIsoHardware(t *testing.T) {
	// With PLP=2, three external products per iteration exceed the FFT
	// units: latency must NOT improve.
	c, err := CompareUnrolling(DefaultConfig(), tfhe.ParamsI)
	if err != nil {
		t.Fatal(err)
	}
	if c.UnrolledLatencyMs < c.StdLatencyMs {
		t.Errorf("iso-hardware unrolling should not reduce latency: %.3f vs %.3f",
			c.UnrolledLatencyMs, c.StdLatencyMs)
	}
}

func TestUnrollingMemoryBoundAtOneStack(t *testing.T) {
	// Even with PLP=6 (compute scaled to the 3 products per iteration),
	// unrolling stays memory bound at one HBM stack: the total key
	// traffic is 1.5x, so latency gets WORSE, not better — the
	// quantitative argument for Strix's batching over Matcha's unrolling.
	cfg := DefaultConfig()
	cfg.PLP = 6
	c, err := CompareUnrolling(cfg, tfhe.ParamsI)
	if err != nil {
		t.Fatal(err)
	}
	if c.UnrolledLatencyMs <= c.StdLatencyMs {
		t.Errorf("one-stack unrolled latency %.3f ms should exceed standard %.3f ms",
			c.UnrolledLatencyMs, c.StdLatencyMs)
	}
}

func TestUnrollingAtBestReachesParity(t *testing.T) {
	// Under a streaming architecture, unrolling performs 1.5x the total
	// FFT work, so even with 3x FFT units AND 2x key bandwidth it only
	// reaches latency *parity* with the standard design (never better) —
	// while paying 1.5x key size. This quantifies why Strix chose
	// two-level batching over Matcha's unrolling.
	cfg := DefaultConfig()
	cfg.PLP = 6
	cfg.HBMBytesPerSec = 600e9
	cfg.BskChannels, cfg.KskChannels, cfg.CtChannels = 12, 2, 2
	c, err := CompareUnrolling(cfg, tfhe.ParamsI)
	if err != nil {
		t.Fatal(err)
	}
	ratio := c.UnrolledLatencyMs / c.StdLatencyMs
	if ratio < 0.95 {
		t.Errorf("unrolling should not beat the equally-scaled standard design (ratio %.2f)", ratio)
	}
	if ratio > 1.15 {
		t.Errorf("with scaled hardware unrolling should be near parity (ratio %.2f)", ratio)
	}
	// And it still costs 1.5x the key storage/traffic.
	if c.KeyBytesRatio < 1.45 {
		t.Errorf("key ratio %.2f", c.KeyBytesRatio)
	}
}

func TestSweepCoreBatchSaturates(t *testing.T) {
	pts, err := SweepCoreBatch(DefaultConfig(), tfhe.ParamsI, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	// Throughput non-decreasing, latency increasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].ThroughputPBS < pts[i-1].ThroughputPBS-1 {
			t.Errorf("throughput dropped at batch %d", pts[i].Batch)
		}
		if pts[i].LatencyMs <= pts[i-1].LatencyMs {
			t.Errorf("batch latency should grow at batch %d", pts[i].Batch)
		}
	}
	// Saturation: batch 2 already hides the set-I fetch.
	if pts[5].ThroughputPBS > pts[1].ThroughputPBS*1.01 {
		t.Error("throughput should saturate by batch 2 on set I")
	}
}

func TestSweepBandwidthFlatAboveStack(t *testing.T) {
	pts, err := SweepBandwidth(DefaultConfig(), tfhe.ParamsIV, []float64{75, 150, 300, 600, 1200})
	if err != nil {
		t.Fatal(err)
	}
	// Starved configurations are memory bound and slower.
	if !pts[0].MemoryBound {
		t.Error("75 GB/s should be memory bound for set IV")
	}
	if pts[0].ThroughputPBS >= pts[2].ThroughputPBS {
		t.Error("starved bandwidth should reduce throughput")
	}
	// Above one stack, throughput is flat (compute bound).
	if pts[4].ThroughputPBS > pts[2].ThroughputPBS*1.05 {
		t.Errorf("throughput should be flat above 300 GB/s: %v vs %v",
			pts[4].ThroughputPBS, pts[2].ThroughputPBS)
	}
}

func TestSweepCoreBatchRespectsScratchpad(t *testing.T) {
	// Set IV caps at batch 2; asking for 8 must clamp.
	pts, err := SweepCoreBatch(DefaultConfig(), tfhe.ParamsIV, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Errorf("set IV sweep returned %d points, want 2 (scratchpad cap)", len(pts))
	}
}
