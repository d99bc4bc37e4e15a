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
// baseline of ref [34] is a multicore CPU run). The registry runs
// Fig7(20), whose report reads 38–45x Strix over CPU, above the paper's
// 33–38x band.
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
		cpuMs, err := cpu.RunLayers(p, layers)
		if err != nil {
			return Report{}, err
		}
		gpuMs, err := gpu.RunLayers(p, layers)
		if err != nil {
			return Report{}, err
		}
		m, err := arch.NewModel(arch.DefaultConfig(), p)
		if err != nil {
			return Report{}, err
		}
		res, err := m.RunLayers(layers)
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
