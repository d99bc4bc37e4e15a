package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back:
// the workload names and each metric's unit, direction and bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runLine is one line of a run file: a run's result line wrapped with the
// workload and seed it was made with (all.sh writes these).
type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// runSet holds the values of every metric per workload over a file's runs.
type runSet map[string]map[string][]float64

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line runLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !line.Result.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s seed %d was not correct (%d of %d ops failed)",
				path, n, line.Workload, line.Seed, line.Result.Failed, line.Result.Attempted)
		}
		if set[line.Workload] == nil {
			set[line.Workload] = map[string][]float64{}
		}
		for name, m := range line.Result.Metrics {
			set[line.Workload][name] = append(set[line.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// spread returns the median of vals and the distance between their first
// and third quartile as a share of it. One value has no spread.
func spread(vals []float64) (median, iqrShare float64) {
	q1, q2, q3 := quartiles(vals)
	return q2, (q3 - q1) / q2
}

// compareFiles prints, for every workload and end-to-end metric, the
// median and spread of the runs in the first file beside the metric's
// bound; given a second file, also how much worse its median is. It
// returns 1 when a spread or a difference exceeds its bound. Set-up time's
// spread is flagged but does not count: set-up is a few passes per run,
// not a window, and the acceptance check exempts its spread too.
func compareFiles(benchmarkPath string, paths []string, stdout, stderr io.Writer) int {
	if len(paths) < 1 || len(paths) > 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes one or two run files")
		return 2
	}
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sets := make([]runSet, len(paths))
	for i, path := range paths {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	exceeded := 0
	fmt.Fprintf(stdout, "%-16s %-16s %4s %12s %8s %6s", "workload", "metric", "runs", "median", "spread", "bound")
	if len(sets) == 2 {
		fmt.Fprintf(stdout, " %12s %8s", "median b", "worse by")
	}
	fmt.Fprintln(stdout)
	for _, w := range bf.Workloads {
		for _, spec := range bf.EndToEnd {
			vals := sets[0][w.Name][spec.Name]
			if len(vals) == 0 {
				continue
			}
			med, iqr := spread(vals)
			flag := ""
			switch {
			case iqr <= spec.Bound:
			case spec.Name == "setup_s":
				flag = "  spread > bound (not counted)"
			default:
				flag = "  SPREAD > BOUND"
				exceeded++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %4d %12.4f %8.4f %6.2f", w.Name, spec.Name, len(vals), med, iqr, spec.Bound)
			if len(sets) == 2 {
				if other := sets[1][w.Name][spec.Name]; len(other) > 0 {
					medB, _ := spread(other)
					worse := (medB - med) / med
					if spec.Better == "higher" {
						worse = -worse
					}
					if worse > spec.Bound {
						flag += "  WORSE > BOUND"
						exceeded++
					}
					fmt.Fprintf(stdout, " %12.4f %+8.4f", medB, worse)
				}
			}
			fmt.Fprintln(stdout, flag)
		}
	}
	if exceeded > 0 {
		fmt.Fprintf(stdout, "%d comparisons outside their bound\n", exceeded)
		return 1
	}
	return 0
}
