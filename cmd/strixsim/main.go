// Command strixsim runs a custom Strix configuration against a PBS
// workload: it prints the analytic performance summary, optionally
// cross-checks it with the cycle-level simulator, and can render the Fig
// 8-style functional-unit Gantt chart.
//
// Usage:
//
//	strixsim -set I
//	strixsim -set IV -tvlp 2 -clp 16
//	strixsim -set I -count 100000
//	strixsim -set I -gantt -batch 3 -iters 2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/cycle"
	"repro/internal/tfhe"
)

func main() {
	set := flag.String("set", "I", "TFHE parameter set (I..IV)")
	tvlp := flag.Int("tvlp", 8, "test-vector level parallelism (number of HSCs)")
	clp := flag.Int("clp", 4, "coefficient level parallelism (FFT lanes)")
	plp := flag.Int("plp", 2, "polynomial level parallelism")
	colp := flag.Int("colp", 2, "column level parallelism")
	batch := flag.Int("batch", 0, "core-level batch size (0 = auto)")
	count := flag.Int("count", 0, "schedule this many PBS ops through the chip")
	folded := flag.Bool("folded", true, "enable the FFT folding scheme")
	gantt := flag.Bool("gantt", false, "render the functional-unit gantt chart")
	iters := flag.Int("iters", 2, "blind-rotation iterations for -gantt")
	flag.Parse()

	p, err := tfhe.ParamsByName(*set)
	if err != nil {
		fail(err)
	}
	cfg := arch.DefaultConfig().WithParallelism(*tvlp, *clp, *plp, *colp)
	cfg.CoreBatch = *batch
	cfg.Folded = *folded

	m, err := arch.NewModel(cfg, p)
	if err != nil {
		fail(err)
	}
	s := m.Summary()
	fmt.Printf("Strix configuration: TvLP=%d CLP=%d PLP=%d CoLP=%d folded=%v, set %s\n",
		cfg.TvLP, cfg.CLP, cfg.PLP, cfg.CoLP, cfg.Folded, p.Name)
	fmt.Printf("  stage interval:      %d cycles/LWE/iteration\n", s.StageInterval)
	fmt.Printf("  bsk fetch:           %d cycles/iteration\n", s.BskFetchCycles)
	fmt.Printf("  core batch:          %d LWE (epoch %d LWE)\n", s.CoreBatch, s.EpochLWECount)
	fmt.Printf("  PBS latency:         %.3f ms\n", s.LatencyMs)
	fmt.Printf("  PBS throughput:      %.0f PBS/s\n", s.ThroughputPBS)
	fmt.Printf("  KS cycles/LWE:       %d (hidden behind BR: %v)\n", s.KSCyclesPerLWE, s.KSHiddenFully)
	fmt.Printf("  required bandwidth:  %.0f GB/s (%s bound)\n",
		s.RequiredBWGBs, boundKind(s.MemoryBound))

	if *count > 0 {
		res, err := m.RunPBS(*count)
		if err != nil {
			fail(err)
		}
		fmt.Printf("workload: %d PBS in %d epochs: %.3f ms (%.0f PBS/s sustained)\n",
			res.PBSCount, res.Epochs, res.Seconds*1e3, res.ThroughputPBS)
	}

	if *gantt {
		sim := arch.NewHSCSim(m)
		b := s.CoreBatch
		if *batch > 0 {
			b = *batch
		}
		if _, err := sim.SimulateBlindRotate(b, *iters); err != nil {
			fail(err)
		}
		end := sim.Trace.End()
		fmt.Printf("\nfunctional-unit gantt (%d LWEs, %d iterations, %d cycles):\n",
			b, *iters, end)
		fmt.Print(sim.Trace.Gantt(0, end, 100))
		for _, u := range []string{
			arch.UnitRotator, arch.UnitDecomposer, arch.UnitFFT,
			arch.UnitVMA, arch.UnitIFFT, arch.UnitAccum,
		} {
			fmt.Printf("  %-14s %.0f%%\n", u, 100*sim.Trace.Utilization(u, 0, cycle.Time(end)))
		}
	}
}

func boundKind(mem bool) string {
	if mem {
		return "memory"
	}
	return "compute"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "strixsim:", err)
	os.Exit(1)
}
