package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tfhe"
)

func TestCPULatenciesMatchTableV(t *testing.T) {
	c := NewCPUModel()
	want := map[string]float64{"I": 14, "II": 19, "III": 38, "IV": 969}
	for set, ms := range want {
		got, err := c.PBSLatencyMs(set)
		if err != nil || got != ms {
			t.Errorf("set %s: %v ms, err %v; want %v", set, got, err, ms)
		}
	}
	if _, err := c.PBSLatencyMs("V"); err == nil {
		t.Error("unknown set should error")
	}
}

func TestCPUThroughputIsInverseLatency(t *testing.T) {
	c := NewCPUModel()
	thr, err := c.ThroughputPBS("I")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(thr-71.4) > 1 {
		t.Errorf("set I throughput %v, want ~71 PBS/s (Table V: 70)", thr)
	}
}

func TestCPURunPBSSerial(t *testing.T) {
	c := NewCPUModel()
	thr, err := c.ThroughputPBS("I")
	if err != nil {
		t.Fatal(err)
	}
	if secs := 1000 / thr; math.Abs(secs-14.0) > 0.01 {
		t.Errorf("1000 PBS = %v s, want 14 s", secs)
	}
}

func TestCPUThreadsScale(t *testing.T) {
	c := NewCPUModel()
	c.Threads = 32
	thr, err := c.ThroughputPBS("I")
	if err != nil {
		t.Fatal(err)
	}
	if secs := 3200 / thr; math.Abs(secs-1.4) > 0.01 {
		t.Errorf("3200 PBS on 32 threads = %v s, want 1.4 s", secs)
	}
}

func TestGPUFragmentsEquation2(t *testing.T) {
	g := NewGPUModel()
	cases := []struct{ lwe, frag int }{
		{0, 0}, {1, 0}, {72, 0}, {73, 1}, {144, 1}, {145, 2}, {288, 3},
	}
	for _, c := range cases {
		if got := g.Fragments(c.lwe); got != c.frag {
			t.Errorf("Fragments(%d) = %d, want %d", c.lwe, got, c.frag)
		}
	}
}

// normalizedRun returns RunPBS(set I, count) in units of one blind-rotation
// batch, the y-axis of Fig 2.
func normalizedRun(t *testing.T, g GPUModel, count int) float64 {
	t.Helper()
	secs, err := g.RunPBS("I", count)
	if err != nil {
		t.Fatal(err)
	}
	return (secs*1e3 - g.LaunchOverheadMs) / g.BatchMs["I"]
}

func TestGPUDeviceLevelStepFunction(t *testing.T) {
	// Fig 2 left: flat at 1 through 72 LWEs, 2 through 144, etc.
	g := NewGPUModel()
	cases := []struct {
		lwe   int
		units float64
	}{
		{1, 1}, {72, 1}, {73, 2}, {144, 2}, {145, 3}, {288, 4},
	}
	for _, c := range cases {
		if got := normalizedRun(t, g, c.lwe); math.Abs(got-c.units) > 1e-9 {
			t.Errorf("%d LWEs take %v normalized units, want %v", c.lwe, got, c.units)
		}
	}
}

func TestGPUCoreLevelLinearGrowth(t *testing.T) {
	// Fig 2 right: core-level batching on the GPU scales time linearly —
	// no benefit (the paper's motivation for specialized hardware). b
	// ciphertexts on each of the SMs take b batch times.
	g := NewGPUModel()
	for b := 1; b <= 3; b++ {
		if got := normalizedRun(t, g, b*g.SMs); math.Abs(got-float64(b)) > 1e-9 {
			t.Errorf("%d LWEs per core take %v normalized units, want %d", b, got, b)
		}
	}
}

func TestGPUTableVNumbers(t *testing.T) {
	g := NewGPUModel()
	thr, err := g.ThroughputPBS("I")
	if err != nil || math.Abs(thr-2000) > 1 {
		t.Errorf("set I throughput %v err %v, want 2000", thr, err)
	}
	lat, err := g.PBSLatencyMs("I")
	if err != nil || math.Abs(lat-37) > 0.5 {
		t.Errorf("set I latency %v err %v, want 37", lat, err)
	}
	thr2, err := g.ThroughputPBS("II")
	if err != nil || math.Abs(thr2-500) > 1 {
		t.Errorf("set II throughput %v err %v, want 500", thr2, err)
	}
	if _, err := g.RunPBS("IV", 10); err == nil {
		t.Error("NuFHE should reject set IV")
	}
}

func TestGPURunPBSAppliesEquation1(t *testing.T) {
	g := NewGPUModel()
	t1, _ := g.RunPBS("I", 72)
	t2, _ := g.RunPBS("I", 73)
	if ratio := t2 / t1; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("fragmentation should double time at 73 LWEs: ratio %v", ratio)
	}
	zero, err := g.RunPBS("I", 0)
	if err != nil || zero != 0 {
		t.Errorf("RunPBS(0) = %v, %v", zero, err)
	}
}

func TestGPUScaledBatch(t *testing.T) {
	g := NewGPUModel()
	// Same degree → same time.
	same, err := g.ScaledBatchMs("I", 1024, 1024)
	if err != nil || math.Abs(same-36) > 1e-9 {
		t.Errorf("self-scaled batch %v, err %v", same, err)
	}
	// Doubling N more than doubles time (N log N).
	big, _ := g.ScaledBatchMs("I", 1024, 2048)
	if big <= 2*36 {
		t.Errorf("N=2048 batch %v should exceed 72 ms", big)
	}
}

func TestPublishedComparators(t *testing.T) {
	rows := PublishedComparators()
	if len(rows) != 5 {
		t.Fatalf("%d comparator rows, want 5", len(rows))
	}
	var matcha *Comparator
	for i := range rows {
		if rows[i].Platform == "Matcha" {
			matcha = &rows[i]
		}
	}
	if matcha == nil || matcha.PBSPerSec != 10000 {
		t.Error("Matcha row missing or wrong")
	}
}

func TestGateBreakdownMatchesFig1(t *testing.T) {
	// Run a real gate with the functional library and check the derived
	// breakdown against the paper's Fig 1 narrative: PBS ~65%, KS ~30%,
	// other ~5%; blind rotation ≥ 95% of PBS; FFT share exceeds IFFT
	// share by the lb:1 imbalance.
	rng := rand.New(rand.NewSource(99))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ev := tfhe.NewEvaluator(ek)
	a := sk.EncryptBool(rng, true)
	b := sk.EncryptBool(rng, false)
	ev.NAND(a, b)

	bd := GateBreakdown(tfhe.ParamsTest, ev, DefaultCostWeights())

	if sum := bd.PBSFrac + bd.KSFrac + bd.OtherFrac; math.Abs(sum-1) > 1e-9 {
		t.Errorf("top-level fractions sum to %v", sum)
	}
	if bd.PBSFrac < 0.5 || bd.PBSFrac > 0.85 {
		t.Errorf("PBS fraction %.2f outside the Fig 1 ballpark (~0.65)", bd.PBSFrac)
	}
	if bd.KSFrac < 0.1 || bd.KSFrac > 0.45 {
		t.Errorf("KS fraction %.2f outside the Fig 1 ballpark (~0.30)", bd.KSFrac)
	}
	if bd.BlindRotateFrac < 0.9 {
		t.Errorf("blind rotation %.2f of PBS, want >= 0.9 (paper: 96-98%%)", bd.BlindRotateFrac)
	}
	// FFT processes lb polys per IFFT poly (§III).
	if bd.FFTFrac <= bd.IFFTAccFrac {
		t.Errorf("FFT share %.2f should exceed IFFT+accum share %.2f", bd.FFTFrac, bd.IFFTAccFrac)
	}
}
