package strix

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§VI). Each benchmark regenerates the corresponding
// experiment and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The text/CSV tables themselves come
// from `go run ./cmd/strixbench -exp all`.

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/intops"
	"repro/internal/sched"
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
		ev.EvalLUTKS(ct, 8, func(x int) int { return (x + 1) % 8 })
	}
}

// BenchmarkPBS measures the raw programmable bootstrap — modswitch, blind
// rotation (the CMux/external-product burst), sample extract — under both
// FFT kernel sets. fast is the unsafe vectorized datapath the engines run
// by default; ref is the pure-Go bitwise reference. The fast/ref pair
// feeds the CI perf gate's pbs_fast_vs_ref ratio (cmd/benchjson, absolute
// floor 1.2): the ratio is a same-run quotient, so it holds on any
// machine, and the conformance suite separately pins that the two paths
// agree bitwise.
func BenchmarkPBS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ct := sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(3, 8), tfhe.ParamsTest.LWEStdDev)
	run := func(b *testing.B) {
		ev := tfhe.NewEvaluator(ek)
		tv := ev.LUTTestVector(8, func(x int) int { return (x + 1) % 8 })
		ev.Bootstrap(ct, tv) // warm scratch and twiddles off the clock
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Bootstrap(ct, tv)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "PBS/s")
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e9, "ns/PBS")
	}
	b.Run("fast", func(b *testing.B) {
		if !fft.FastKernelAvailable() {
			b.Skip("purego build")
		}
		prev := fft.SetFastKernel(true)
		defer fft.SetFastKernel(prev)
		run(b)
	})
	b.Run("ref", func(b *testing.B) {
		prev := fft.SetFastKernel(false)
		defer fft.SetFastKernel(prev)
		run(b)
	})
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

// batchWorkerCounts returns the worker counts to benchmark: 1, NumCPU, and
// a midpoint when the machine is wide enough — the 1→NumCPU series is the
// software scaling curve the accelerator's batch thesis predicts.
func batchWorkerCounts() []int {
	ncpu := runtime.NumCPU()
	counts := []int{1}
	if ncpu >= 4 {
		counts = append(counts, ncpu/2)
	}
	if ncpu > 1 {
		counts = append(counts, ncpu)
	}
	return counts
}

// BenchmarkBatchBootstrap measures the worker-pool engine on batches of
// raw programmable bootstraps and reports PBS/s per worker count. With
// workers=NumCPU on a multi-core machine this should scale near-linearly
// over workers=1 (ciphertexts are independent; evaluators share nothing
// but read-only keys).
func BenchmarkBatchBootstrap(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const batch = 64
	cts := make([]tfhe.LWECiphertext, batch)
	for i := range cts {
		cts[i] = sk.EncryptBool(rng, i%2 == 0)
	}
	tv := tfhe.NewGLWECiphertext(tfhe.ParamsTest.K, tfhe.ParamsTest.N)
	for _, w := range batchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := engine.New(ek, engine.Config{Workers: w})
			eng.BatchBootstrap(cts[:8], tv) // warm the pool off the clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.BatchBootstrap(cts, tv)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "PBS/s")
		})
	}
}

// BenchmarkBatchGate measures the full gate pipeline (linear combination +
// PBS + KS per lane) through the engine — the software row to put next to
// Table V's predicted throughputs.
func BenchmarkBatchGate(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const batch = 64
	as := make([]tfhe.LWECiphertext, batch)
	bs := make([]tfhe.LWECiphertext, batch)
	for i := range as {
		as[i] = sk.EncryptBool(rng, i%2 == 0)
		bs[i] = sk.EncryptBool(rng, i%3 == 0)
	}
	for _, w := range batchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := engine.New(ek, engine.Config{Workers: w})
			if _, err := eng.BatchGate(engine.NAND, as[:8], bs[:8]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.BatchGate(engine.NAND, as, bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "gates/s")
		})
	}
}

// BenchmarkStreamGate measures the two-level streaming pipeline on the
// full gate workload (linear combination + PBS + fused KS per lane) and
// reports PBS/s per rotate-worker count — the streaming row to compare
// against BenchmarkBatchGate's flat worker pool at the same width.
func BenchmarkStreamGate(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const batch = 64
	as := make([]tfhe.LWECiphertext, batch)
	bs := make([]tfhe.LWECiphertext, batch)
	for i := range as {
		as[i] = sk.EncryptBool(rng, i%2 == 0)
		bs[i] = sk.EncryptBool(rng, i%3 == 0)
	}
	for _, w := range batchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: w})
			if _, err := s.StreamGate(engine.NAND, as[:8], bs[:8]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.StreamGate(engine.NAND, as, bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "PBS/s")
		})
	}
}

// BenchmarkStreamBootstrap measures the streamed raw PBS (no keyswitch,
// shared test vector) per rotate-worker count, the streaming counterpart
// of BenchmarkBatchBootstrap.
func BenchmarkStreamBootstrap(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const batch = 64
	cts := make([]tfhe.LWECiphertext, batch)
	for i := range cts {
		cts[i] = sk.EncryptBool(rng, i%2 == 0)
	}
	tv := tfhe.NewGLWECiphertext(tfhe.ParamsTest.K, tfhe.ParamsTest.N)
	for _, w := range batchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: w})
			s.StreamBootstrap(cts[:8], tv) // warm the pipeline off the clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StreamBootstrap(cts, tv)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "PBS/s")
		})
	}
}

// BenchmarkStreamLUT measures the fused §IV-C LUT pipeline (shift → PBS →
// keyswitch) with the LUT encoded once per stream.
func BenchmarkStreamLUT(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const batch = 64
	const space = 8
	cts := make([]tfhe.LWECiphertext, batch)
	for i := range cts {
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(i%space, space), tfhe.ParamsTest.LWEStdDev)
	}
	sq := func(x int) int { return (x * x) % space }
	for _, w := range batchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: w})
			s.StreamLUT(cts[:8], space, sq)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StreamLUT(cts, space, sq)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "PBS/s")
		})
	}
}

// BenchmarkMultiLUT measures multi-value PBS throughput in LUT outputs
// per second as the fan-out k grows: every iteration runs one blind
// rotation that serves k lookup tables (plus k extractions and
// keyswitches). k=1 is exactly the plain EvalLUTKS workload — bitwise
// identical, by the multi-value degeneration contract — so the
// k=4 / k=1 quotient is the machine-portable "multi-value vs k
// independent LUTs" speedup the CI perf gate enforces (cmd/benchjson's
// multilut_vs_klut, floor 1.5).
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
			ev.EvalMultiLUTKS(ct, space, fs) // warm twiddles off the clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.EvalMultiLUTKS(ct, space, fs)
			}
			b.ReportMetric(float64(b.N*k)/b.Elapsed().Seconds(), "LUT/s")
		})
	}
}

// BenchmarkCircuitMul measures the levelizing circuit scheduler against
// the unscheduled per-gate path on a 3-digit encrypted multiply — the
// same DAG, dispatched one PBS at a time (seq) versus level batches over
// the engines. The seq↔sched-w2 pair feeds the CI perf gate's
// machine-portable speedup ratio (cmd/benchjson); sched-wmax shows the
// full-width speedup of the benchmarking machine.
func BenchmarkCircuitMul(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	const digits = 3
	x, err := intops.Encrypt(rng, sk, 57, digits)
	if err != nil {
		b.Fatal(err)
	}
	y, err := intops.Encrypt(rng, sk, 46, digits)
	if err != nil {
		b.Fatal(err)
	}
	inputs := append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)

	circ, err := intops.MulCircuit(digits)
	if err != nil {
		b.Fatal(err)
	}
	schedule, err := sched.Compile(circ, sched.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pbs := float64(schedule.Stats().TotalPBS)

	b.Run("seq", func(b *testing.B) {
		ev := tfhe.NewEvaluator(ek)
		if _, err := sched.RunSequential(circ, ev, inputs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sched.RunSequential(circ, ev, inputs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*pbs/b.Elapsed().Seconds(), "PBS/s")
	})

	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sched-w2", 2},
		{"sched-wmax", runtime.NumCPU()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			r := &sched.Runner{
				Batch:  engine.New(ek, engine.Config{Workers: cfg.workers}),
				Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: cfg.workers}),
			}
			if _, err := r.RunSchedule(circ, schedule, inputs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RunSchedule(circ, schedule, inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*pbs/b.Elapsed().Seconds(), "PBS/s")
		})
	}

	// Optimized vs naive: the same engines, the same source DAG, timed
	// end to end per multiply — wall-clock, not PBS/s, because the
	// optimizer's whole point is running fewer rotations for the same
	// answer (19 → 12 on the 3-digit multiply: LUT-chain fusion plus
	// multi-value packing of carry/digit fan-out). The pair feeds the CI
	// perf gate's optimized_vs_naive ratio (cmd/benchjson).
	opt := sched.OptAll()
	opt.MultiValueBudget = tfhe.ParamsTest.N
	optSchedule, err := sched.Compile(circ, sched.Config{Opt: opt})
	if err != nil {
		b.Fatal(err)
	}
	optRunner := &sched.Runner{
		Batch:  engine.New(ek, engine.Config{Workers: 2}),
		Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2}),
	}
	for _, cfg := range []struct {
		name string
		s    *sched.Schedule
	}{
		{"naive", schedule},
		{"optimized", optSchedule},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			if _, err := optRunner.RunSchedule(circ, cfg.s, inputs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := optRunner.RunSchedule(circ, cfg.s, inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "mul/s")
		})
	}
}

// BenchmarkSessionRestore measures cold-start session recovery: a gate
// service whose warm tier is empty restores a persisted session from the
// durable store (blob fetch + CRC verify + eval-key decode + engine
// build) and serves one unary gate. The mem sub-benchmark isolates the
// decode/build cost; disk adds the file I/O and checksum path, and the
// disk/mem ratio is gated in CI (cmd/benchjson) so the storage layer
// cannot silently dominate recovery.
func BenchmarkSessionRestore(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	ct := sk.EncryptBool(rng, true)
	const id = "bench-restore"
	// persist fills a store the way a registration does.
	persist := func(b *testing.B, store SessionStore) {
		b.Helper()
		if err := NewGateService(ServiceConfig{Store: store}).RegisterKey(id, ek); err != nil {
			b.Fatal(err)
		}
	}

	run := func(b *testing.B, store SessionStore) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			// A fresh service has an empty warm tier, so the first
			// request for the session takes the restore path.
			srv := NewGateService(ServiceConfig{Store: store})
			if _, err := srv.GateBatch(id, engine.NOT, []tfhe.LWECiphertext{ct}, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	}

	b.Run("mem", func(b *testing.B) {
		store := NewMemStore()
		persist(b, store)
		b.ResetTimer()
		run(b, store)
	})

	b.Run("disk", func(b *testing.B) {
		store, err := OpenDiskStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		persist(b, store)
		b.ResetTimer()
		run(b, store)
	})
}

// BenchmarkInfer measures the encrypted cellCNN-style inference scenario
// through the gate service, one single-vector infer request per lane:
// serial issues the lanes back to back on one session, coalesced fires
// the same lanes concurrently under that session so the group-commit
// window merges each model stage's identically-shaped rotations across
// requests into shared engine streams. Both report inf/s, and the
// coalesced/serial quotient is the CI perf gate's
// infer_coalesced_vs_serial ratio (cmd/benchjson).
func BenchmarkInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	srv := NewGateService(ServiceConfig{Stream: engine.StreamConfig{RotateWorkers: 2}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() { _ = Serve(l, srv) }()
	cl := Dial("http://"+l.Addr().String(), "bench-infer")
	if err := cl.RegisterKey(ek); err != nil {
		b.Fatal(err)
	}

	const lanes = 8
	vecs := make([][]tfhe.LWECiphertext, lanes)
	for i := range vecs {
		cts := make([]tfhe.LWECiphertext, InferFeatures)
		for m := range cts {
			cts[m] = sk.LWE.Encrypt(rng,
				tfhe.EncodePBSMessage(rng.Intn(InferDigitMax+1), InferSpace), tfhe.ParamsTest.LWEStdDev)
		}
		vecs[i] = cts
	}
	if _, err := cl.Infer(vecs[0], EvalOpts{}); err != nil { // warm session + connection
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cts := range vecs {
				if _, err := cl.Infer(cts, EvalOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*lanes)/b.Elapsed().Seconds(), "inf/s")
	})

	b.Run("coalesced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			errs := make([]error, lanes)
			var wg sync.WaitGroup
			for j, cts := range vecs {
				wg.Add(1)
				go func(j int, cts []tfhe.LWECiphertext) {
					defer wg.Done()
					_, errs[j] = cl.Infer(cts, EvalOpts{})
				}(j, cts)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*lanes)/b.Elapsed().Seconds(), "inf/s")
	})
}

// TestHelperClusterNode is not a test: it is the backend-node subprocess
// behind BenchmarkClusterGate. The benchmark re-execs this test binary
// with STRIX_CLUSTER_NODE=1 and GOMAXPROCS=1, and this helper becomes one
// fixed-hardware gate-service node announcing its address on stdout.
func TestHelperClusterNode(t *testing.T) {
	if os.Getenv("STRIX_CLUSTER_NODE") != "1" {
		t.Skip("helper process for BenchmarkClusterGate")
	}
	srv := NewGateService(ServiceConfig{Stream: engine.StreamConfig{RotateWorkers: 1}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("cluster-node: listening on %s\n", l.Addr())
	_ = Serve(l, srv) // blocks until the parent kills the process
}

// startClusterNode boots one backend-node subprocess for
// BenchmarkClusterGate and returns its base URL. The node is pinned to
// GOMAXPROCS=1 so aggregate throughput can only grow by adding nodes.
func startClusterNode(b *testing.B) string {
	b.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperClusterNode$")
	cmd.Env = append(os.Environ(), "STRIX_CLUSTER_NODE=1", "GOMAXPROCS=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	scanner := bufio.NewScanner(stdout)
	if !scanner.Scan() {
		b.Fatal("cluster node produced no output")
	}
	line := scanner.Text()
	const prefix = "cluster-node: listening on "
	if !strings.HasPrefix(line, prefix) {
		b.Fatalf("unexpected node announcement %q", line)
	}
	go func() { // drain so the child never blocks on a full pipe
		for scanner.Scan() {
		}
	}()
	return "http://" + strings.TrimPrefix(line, prefix)
}

// BenchmarkClusterGate measures routed scale-out: the same concurrent
// multi-session gate workload through the routing tier against 1 backend
// node and against 2, each node a separate single-CPU process
// (GOMAXPROCS=1, one rotate worker per session). Sessions are
// shard-balanced by client ID, so the nodes=2 / nodes=1 PBS/s quotient is
// the cluster scaling ratio the CI perf gate enforces (cmd/benchjson's
// cluster2_vs_single, floor 1.5 on machines with ≥2 CPUs).
func BenchmarkClusterGate(b *testing.B) {
	urls := []string{startClusterNode(b), startClusterNode(b)}

	// Balance client IDs against the full 2-node membership once, so both
	// subbenches run the identical session set: nodes=1 serves all four on
	// one backend, nodes=2 serves two per shard.
	placer, err := NewRouter(RouterConfig{Backends: urls})
	if err != nil {
		b.Fatal(err)
	}
	defer placer.Close()
	const clientsPerNode = 2
	quota := map[string]int{urls[0]: clientsPerNode, urls[1]: clientsPerNode}
	var ids []string
	for i := 0; len(ids) < 2*clientsPerNode; i++ {
		id := fmt.Sprintf("bench-cluster-%d", i)
		if u := placer.ShardOf(id); quota[u] > 0 {
			quota[u]--
			ids = append(ids, id)
		}
	}

	const gates = 16
	rng := rand.New(rand.NewSource(29))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	as := make([]tfhe.LWECiphertext, gates)
	bs := make([]tfhe.LWECiphertext, gates)
	for g := range as {
		as[g] = sk.EncryptBool(rng, g%2 == 0)
		bs[g] = sk.EncryptBool(rng, g%3 == 0)
	}

	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			rt, err := NewRouter(RouterConfig{Backends: urls[:nodes]})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() { _ = ServeRouter(l, rt) }()
			base := "http://" + l.Addr().String()

			cls := make([]*GateClient, len(ids))
			for i, id := range ids {
				cls[i] = Dial(base, id)
				if err := cls[i].RegisterKey(ek); err != nil {
					b.Fatal(err)
				}
				if _, err := cls[i].GateBatch(engine.NAND, as[:4], bs[:4]); err != nil {
					b.Fatal(err)
				}
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, len(cls))
				for c, cl := range cls {
					wg.Add(1)
					go func(c int, cl *GateClient) {
						defer wg.Done()
						_, errs[c] = cl.GateBatch(engine.NAND, as, bs)
					}(c, cl)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*len(cls)*gates)/b.Elapsed().Seconds(), "PBS/s")
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
