package strix

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§VI). Each benchmark regenerates the corresponding
// experiment and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The text/CSV tables themselves come
// from `go run ./cmd/strixbench -exp all`. What the software engines, the
// scheduler and the service measure is not here: those are rows of the
// benchmark ledger (benchmark/, `make bench`). BenchmarkPBS and
// BenchmarkMultiLUT stay until the ledger has a row for each.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// BenchmarkFig1WorkloadBreakdown measures a full homomorphic gate (PBS +
// KS) with the functional library — the workload Fig 1 decomposes.
func BenchmarkFig1WorkloadBreakdown(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ev := tfhe.NewEvaluator(ek)
	ca := sk.EncryptBool(rng, true)
	cb := sk.EncryptBool(rng, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.NAND(ca, cb)
	}
	bd := baseline.GateBreakdown(tfhe.ParamsTest, ev, baseline.DefaultCostWeights())
	b.ReportMetric(100*bd.PBSFrac, "%PBS")
	b.ReportMetric(100*bd.KSFrac, "%KS")
	b.ReportMetric(100*bd.BlindRotateFrac, "%BRofPBS")
}

// BenchmarkFig2GPUFragmentation evaluates the GPU blind-rotation
// fragmentation equations over the Fig 2 x-axis.
func BenchmarkFig2GPUFragmentation(b *testing.B) {
	gpu := baseline.NewGPUModel()
	var sink float64
	for i := 0; i < b.N; i++ {
		for x := 1; x <= 288; x++ {
			t, _ := gpu.RunPBS("I", x)
			sink += t
		}
	}
	s73, _ := gpu.RunPBS("I", 73)
	s72, _ := gpu.RunPBS("I", 72)
	b.ReportMetric(s73/s72, "slowdown@73LWE")
	_ = sink
}

// BenchmarkTable3AreaPower evaluates the area/power model.
func BenchmarkTable3AreaPower(b *testing.B) {
	am := arch.AreaModel{Cfg: arch.DefaultConfig(), P: tfhe.ParamsI}
	var area, power float64
	for i := 0; i < b.N; i++ {
		area = am.ChipAreaMM2()
		power = am.ChipPowerW()
	}
	b.ReportMetric(area, "mm2")
	b.ReportMetric(power, "W")
}

// BenchmarkTable5StrixSet benchmarks the Strix performance model for each
// Table V parameter set and reports throughput/latency.
func BenchmarkTable5StrixSet(b *testing.B) {
	for _, p := range tfhe.StandardSets() {
		p := p
		b.Run("set"+p.Name, func(b *testing.B) {
			m, err := arch.NewModel(arch.DefaultConfig(), p)
			if err != nil {
				b.Fatal(err)
			}
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = m.ThroughputPBS()
			}
			b.ReportMetric(thr, "PBS/s")
			b.ReportMetric(m.LatencySeconds()*1e3, "ms/PBS")
		})
	}
}

// BenchmarkTable5FunctionalPBS measures the real (software) programmable
// bootstrap of the functional library on the test parameter set — the
// golden model behind the Table V workload.
func BenchmarkTable5FunctionalPBS(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ev := tfhe.NewEvaluator(ek)
	ct := sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(3, 8), tfhe.ParamsTest.LWEStdDev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalLUTKS(ct, 8, []func(int) int{func(x int) int { return (x + 1) % 8 }})
	}
}

// BenchmarkPBS measures the raw programmable bootstrap — modswitch, blind
// rotation (the CMux/external-product burst), sample extract — under each
// FFT kernel set the host has: avx512 (the AVX-512 transform bodies, AVX2
// elsewhere), avx2 and ref, the pure-Go bitwise reference; a set the host
// lacks is skipped. The fastest set is the datapath the engines run by
// default (fft.KernelSet names it). The quotients are same-run ratios, so
// they hold on any machine, but nothing gates them: the benchmark ledger
// has no row for them yet. That the sets agree bitwise is pinned
// separately, by the conformance suite's reference-kernel and avx2-kernel
// backends.
func BenchmarkPBS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ct := sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(3, 8), tfhe.ParamsTest.LWEStdDev)
	run := func(b *testing.B) {
		ev := tfhe.NewEvaluator(ek)
		tv := ev.LUTTestVector(8, []func(int) int{func(x int) int { return (x + 1) % 8 }})
		ev.Bootstrap(ct, tv) // warm scratch and twiddles off the clock
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Bootstrap(ct, tv)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "PBS/s")
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e9, "ns/PBS")
	}
	for _, set := range []string{"avx512", "avx2", "ref"} {
		b.Run(set, func(b *testing.B) {
			prev := fft.SetKernelSet(set)
			defer fft.SetKernelSet(prev)
			if fft.KernelSet() != set {
				b.Skipf("no %s bodies on this build and host", set)
			}
			run(b)
		})
	}
}

// BenchmarkTable6Folding evaluates both FFT configurations and reports the
// folding gains.
func BenchmarkTable6Folding(b *testing.B) {
	cfg := arch.DefaultConfig()
	folded, _ := arch.NewModel(cfg, tfhe.ParamsI)
	cfg.Folded = false
	unfolded, _ := arch.NewModel(cfg, tfhe.ParamsI)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = folded.ThroughputPBS() / unfolded.ThroughputPBS()
	}
	b.ReportMetric(ratio, "thr-gain")
	amF := arch.AreaModel{Cfg: arch.DefaultConfig(), P: tfhe.ParamsI}
	amN := amF
	amN.Cfg.Folded = false
	b.ReportMetric(amN.FFTUnitAreaMM2()/amF.FFTUnitAreaMM2(), "area-gain")
}

// BenchmarkTable7Sweep runs the TvLP/CLP sweep.
func BenchmarkTable7Sweep(b *testing.B) {
	configs := []struct{ tvlp, clp int }{{16, 2}, {8, 4}, {4, 8}, {2, 16}, {1, 32}}
	var last float64
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			cfg := arch.DefaultConfig().WithParallelism(c.tvlp, c.clp, 2, 2)
			m, err := arch.NewModel(cfg, tfhe.ParamsIV)
			if err != nil {
				b.Fatal(err)
			}
			last = m.ThroughputPBS()
		}
	}
	b.ReportMetric(last, "PBS/s@1x32")
}

// BenchmarkFig7DeepNN schedules all nine Fig 7 model/degree combinations
// on the Strix chip model.
func BenchmarkFig7DeepNN(b *testing.B) {
	models, err := workload.Fig7Models()
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, nn := range models {
			chip, err := arch.NewChip(arch.DefaultConfig(), nn.Params)
			if err != nil {
				b.Fatal(err)
			}
			r, err := chip.RunLayers(nn.LayerPBS())
			if err != nil {
				b.Fatal(err)
			}
			total += r.Seconds
		}
	}
	b.ReportMetric(total*1e3, "ms-all-9")
}

// BenchmarkFig8CycleSim runs the cycle-level HSC simulation that produces
// the Fig 8 trace (3 LWEs, full 500-iteration blind rotation, set I).
func BenchmarkFig8CycleSim(b *testing.B) {
	m, err := arch.NewModel(arch.DefaultConfig(), tfhe.ParamsI)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sim := arch.NewHSCSim(m)
		if _, err := sim.SimulateBlindRotate(3, tfhe.ParamsI.SmallN); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiLUT measures multi-value PBS throughput in LUT outputs
// per second as the fan-out k grows: every iteration runs one blind
// rotation that serves k lookup tables (plus k extractions and
// keyswitches). k=1 is exactly the plain EvalLUTKS workload — bitwise
// identical, by the multi-value degeneration contract — so the
// k=4 / k=1 quotient is the machine-portable "multi-value vs k
// independent LUTs" speedup. The benchmark ledger has no row for it yet,
// so it is reported here and not gated.
func BenchmarkMultiLUT(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const space = 4
	ct := sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(2, space), tfhe.ParamsTest.LWEStdDev)
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ev := tfhe.NewEvaluator(ek)
			fs := make([]func(int) int, k)
			for i := range fs {
				i := i
				fs[i] = func(m int) int { return (m*m + i) % space }
			}
			ev.EvalLUTKS(ct, space, fs) // warm twiddles off the clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.EvalLUTKS(ct, space, fs)
			}
			b.ReportMetric(float64(b.N*k)/b.Elapsed().Seconds(), "LUT/s")
		})
	}
}

// BenchmarkAllExperiments regenerates the entire evaluation section.
func BenchmarkAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
