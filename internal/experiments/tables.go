package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/tfhe"
)

// Table3 reproduces the area and power breakdown of Strix with 8 HSCs at
// TSMC 28nm (model calibrated to the published synthesis results).
func Table3() (Report, error) {
	am := arch.AreaModel{Cfg: arch.DefaultConfig(), P: tfhe.ParamsI}
	r := Report{
		ID:     "table3",
		Title:  "Area and power breakdown of Strix (8 HSCs, 28nm)",
		Header: []string{"component", "area (mm^2)", "power (W)"},
	}
	for _, row := range am.Breakdown() {
		r.AddRow(row.Component, f2(row.AreaMM2), f2(row.PowerW))
	}
	r.AddNote("paper totals: 141.37 mm^2, 77.14 W")
	return r, nil
}

// Table4 lists the TFHE parameter sets used throughout the experiments.
func Table4() (Report, error) {
	r := Report{
		ID:     "table4",
		Title:  "TFHE parameter sets",
		Header: []string{"set", "n", "k", "N", "lb", "lambda", "Bg", "KS level", "KS base"},
	}
	for _, p := range tfhe.StandardSets() {
		r.AddRow(p.Name,
			fmt.Sprintf("%d", p.SmallN), fmt.Sprintf("%d", p.K), fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.PBSLevel), fmt.Sprintf("%d-bit", p.Security),
			fmt.Sprintf("2^%d", p.PBSBaseLog),
			fmt.Sprintf("%d", p.KSLevel), fmt.Sprintf("2^%d", p.KSBaseLog))
	}
	r.AddNote("n/k/N/lb/lambda are Table IV values; gadget and KS parameters are library defaults")
	return r, nil
}

// Table5 reproduces the PBS latency/throughput comparison across platforms:
// CPU and GPU from their calibrated models, FPGA/ASIC comparators from
// their published numbers, and Strix from the analytic model (validated
// against the cycle simulator).
func Table5() (Report, error) {
	r := Report{
		ID:     "table5",
		Title:  "PBS latency and throughput across platforms",
		Header: []string{"platform", "set", "latency (ms)", "throughput (PBS/s)"},
	}
	cpu := baseline.NewCPUModel()
	for _, set := range []string{"I", "II", "III", "IV"} {
		lat, err := cpu.PBSLatencyMs(set)
		if err != nil {
			return Report{}, err
		}
		thr, _ := cpu.ThroughputPBS(set)
		r.AddRow("Concrete (CPU)", set, f2(lat), f0(thr))
	}
	gpu := baseline.NewGPUModel()
	for _, set := range []string{"I", "II"} {
		lat, err := gpu.PBSLatencyMs(set)
		if err != nil {
			return Report{}, err
		}
		thr, _ := gpu.ThroughputPBS(set)
		r.AddRow("NuFHE (GPU)", set, f2(lat), f0(thr))
	}
	for _, c := range baseline.PublishedComparators() {
		lat := "-"
		if c.LatencyMs > 0 {
			lat = f2(c.LatencyMs)
		}
		r.AddRow(c.Platform+" ("+c.Kind+")", c.Set, lat, f0(c.PBSPerSec))
	}
	var strixSetI float64
	for _, p := range tfhe.StandardSets() {
		m, err := arch.NewModel(arch.DefaultConfig(), p)
		if err != nil {
			return Report{}, err
		}
		r.AddRow("Strix (ASIC)", p.Name, f2(m.LatencySeconds()*1e3), f0(m.ThroughputPBS()))
		if p.Name == "I" {
			strixSetI = m.ThroughputPBS()
		}
	}
	cpuThr, _ := cpu.ThroughputPBS("I")
	gpuThr, _ := gpu.ThroughputPBS("I")
	r.AddNote("Strix vs CPU: %.0fx, vs GPU: %.0fx, vs Matcha: %.1fx (paper: 1067x, 37x, 7.4x)",
		strixSetI/cpuThr, strixSetI/gpuThr, strixSetI/baseline.MatchaThroughput)
	return r, nil
}

// Table6 reproduces the FFT folding-optimization ablation.
func Table6() (Report, error) {
	cfg := arch.DefaultConfig()
	folded, err := arch.NewModel(cfg, tfhe.ParamsI)
	if err != nil {
		return Report{}, err
	}
	cfgNF := cfg
	cfgNF.Folded = false
	unfolded, err := arch.NewModel(cfgNF, tfhe.ParamsI)
	if err != nil {
		return Report{}, err
	}
	amF := arch.AreaModel{Cfg: cfg, P: tfhe.ParamsI}
	amNF := arch.AreaModel{Cfg: cfgNF, P: tfhe.ParamsI}

	r := Report{
		ID:     "table6",
		Title:  "FFT folding optimization effects (set I)",
		Header: []string{"metric", "no fold", "with fold", "improvement"},
	}
	latNF := unfolded.LatencySeconds() * 1e3
	latF := folded.LatencySeconds() * 1e3
	r.AddRow("Latency (ms)", f2(latNF), f2(latF), fmt.Sprintf("%.2fx", latNF/latF))
	thrNF := unfolded.ThroughputPBS()
	thrF := folded.ThroughputPBS()
	r.AddRow("Throughput (PBS/s)", f0(thrNF), f0(thrF), fmt.Sprintf("%.2fx", thrF/thrNF))
	aNF := amNF.FFTUnitAreaMM2()
	aF := amF.FFTUnitAreaMM2()
	r.AddRow("FFT unit area (mm^2)", f2(aNF), f2(aF), fmt.Sprintf("%.2fx", aNF/aF))
	cNF := amNF.CoreAreaMM2()
	cF := amF.CoreAreaMM2()
	r.AddRow("Total core area (mm^2)", f2(cNF), f2(cF), fmt.Sprintf("%.2fx", cNF/cF))
	r.AddNote("paper: 0.27/0.16 ms (1.68x), 37472/74696 PBS/s (1.99x), 3.13/1.81 mm^2 (1.73x), 13.87/9.38 mm^2 (1.48x)")
	return r, nil
}

// Table7 reproduces the TvLP-vs-CLP trade-off sweep on parameter set IV
// with the external bandwidth fixed at one HBM2e stack.
func Table7() (Report, error) {
	r := Report{
		ID:     "table7",
		Title:  "TvLP vs CLP effects on throughput, latency, bandwidth (set IV)",
		Header: []string{"TvLP", "CLP", "throughput (PBS/s)", "latency (ms)", "required BW (GB/s)", "bound"},
	}
	for _, cfg := range []struct{ tvlp, clp int }{{16, 2}, {8, 4}, {4, 8}, {2, 16}, {1, 32}} {
		c := arch.DefaultConfig().WithParallelism(cfg.tvlp, cfg.clp, 2, 2)
		m, err := arch.NewModel(c, tfhe.ParamsIV)
		if err != nil {
			return Report{}, err
		}
		s := m.Summary()
		bound := "compute"
		if s.MemoryBound {
			bound = "memory"
		}
		r.AddRow(fmt.Sprintf("%d", cfg.tvlp), fmt.Sprintf("%d", cfg.clp),
			f0(s.ThroughputPBS), f1(s.LatencyMs), f0(s.RequiredBWGBs), bound)
	}
	r.AddNote("paper: 2368/2368/2364/1240/620 PBS/s; 7.2/3.8/3.8/3.6/3.6 ms; 200/257/371/599/1053 GB/s")
	r.AddNote("TvLP=8,CLP=4 is the sweet spot balancing compute and the 300 GB/s stack")
	return r, nil
}
