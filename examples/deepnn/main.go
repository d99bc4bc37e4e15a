// Deep-NN inference scheduling: the Fig 7 application benchmark as a
// library user would run it — build a Zama Deep-NN workload, schedule it
// on the Strix model and on the CPU/GPU baselines, and explore how the
// two-level batching design responds to the TvLP/CLP trade-off (Table VII).
//
// Run with: go run ./examples/deepnn
package main

import (
	"fmt"
	"log"

	strix "repro"
	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/workload"
)

func main() {
	p, err := workload.NNParams(1024)
	if err != nil {
		log.Fatal(err)
	}
	nn, err := workload.NewDeepNN(20, p)
	if err != nil {
		log.Fatal(err)
	}
	layers := nn.LayerPBS()
	fmt.Printf("%s: %d layers, %d bootstraps per inference (conv %d + dense %d×%d)\n",
		nn.Name, len(layers), nn.TotalPBS(), layers[0], workload.DenseNeurons, len(layers)-1)

	// Strix.
	acc, err := strix.NewAccelerator("II")
	if err != nil {
		log.Fatal(err)
	}
	res, err := acc.RunLayers(layers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Strix:       %8.1f ms\n", res.Seconds*1e3)

	// GPU baseline: per-layer blind-rotation fragmentation (72 SMs).
	gpu := baseline.NewGPUModel()
	gpuMs, err := gpu.RunLayers(p, layers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GPU (NuFHE): %8.1f ms  — layer of %d LWEs fragments %d times on %d SMs\n",
		gpuMs, layers[0], gpu.Fragments(layers[0]), gpu.SMs)

	// CPU baseline (20 threads).
	cpu := baseline.NewCPUModel()
	cpu.Threads = 20
	cpuMs, err := cpu.RunLayers(p, layers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPU (x20):   %8.1f ms\n\n", cpuMs)

	// Table VII in miniature: keep TvLP·CLP = 32 and watch the
	// compute/memory-bound crossover at one HBM stack.
	fmt.Println("TvLP/CLP sweep on this workload (set II):")
	for _, c := range []struct{ tvlp, clp int }{{16, 2}, {8, 4}, {4, 8}, {2, 16}} {
		cfg := arch.DefaultConfig().WithParallelism(c.tvlp, c.clp, 2, 2)
		a, err := strix.NewAcceleratorWithConfig(cfg, "II")
		if err != nil {
			log.Fatal(err)
		}
		r, err := a.RunLayers(layers)
		if err != nil {
			log.Fatal(err)
		}
		s := a.Model.Summary()
		bound := "compute"
		if s.MemoryBound {
			bound = "memory"
		}
		fmt.Printf("  TvLP=%-2d CLP=%-2d  %8.1f ms  (%s bound, needs %.0f GB/s)\n",
			c.tvlp, c.clp, r.Seconds*1e3, bound, s.RequiredBWGBs)
	}
}
