package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tfhe"
)

const benchmarkJSON = "../BENCHMARK.json"

// testEnv runs everything at the toy parameter set: the self-test checks
// the harness, not the numbers.
var testEnv = env{params: tfhe.ParamsTest, seed: 7}

// The self-test sets every workload up the fewest times a run may.
func init() { setupBudget = 0 }

// testLadder is the ladder with every probe repeated as little as the
// quartile needs.
var testLadder = ladderConfig{params: tfhe.ParamsTest, params3: tfhe.ParamsTest, small: 3, medium: 2, slow: 1}

// checkMetrics asserts that got holds exactly the metrics specs names,
// each a finite number with the declared unit.
func checkMetrics(t *testing.T, got map[string]metric, specs []metricSpec) {
	t.Helper()
	for _, spec := range specs {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("metric %s of BENCHMARK.json was not emitted", spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", spec.Name, m.Unit, spec.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", spec.Name, m.Value)
		}
	}
	if len(got) != len(specs) {
		names := map[string]bool{}
		for _, spec := range specs {
			names[spec.Name] = true
		}
		for name := range got {
			if !names[name] {
				t.Errorf("metric %s is emitted but not in BENCHMARK.json", name)
			}
		}
	}
}

func TestWorkloadsEmitEveryEndToEndMetric(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, bf.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runEndToEnd(w, testEnv, 400*time.Millisecond, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			checkMetrics(t, res.Metrics, bf.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
			if !strings.Contains(out.String(), "ops: attempted") {
				t.Errorf("output does not state the ops attempted:\n%s", out.String())
			}
		})
	}
}

// checkTrace asserts that the spans of a trace file nest: every parent
// exists, belongs to the same trace and encloses its children, and every
// root is an op.
func checkTrace(t *testing.T, path string, wantNames ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	byID := map[int64]span{}
	seen := map[string]bool{}
	for _, s := range tf.Spans {
		byID[s.SpanID] = s
		seen[s.Name] = true
	}
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d %s ends before it starts", s.SpanID, s.Name)
		}
		if s.ParentID == 0 {
			if s.Name != "op" {
				t.Errorf("root span %d is %q, want op", s.SpanID, s.Name)
			}
			continue
		}
		p, ok := byID[s.ParentID]
		switch {
		case !ok:
			t.Errorf("span %d %s has unknown parent %d", s.SpanID, s.Name, s.ParentID)
		case p.TraceID != s.TraceID:
			t.Errorf("span %d %s is in trace %d, its parent in %d", s.SpanID, s.Name, s.TraceID, p.TraceID)
		case s.StartNS < p.StartNS || s.EndNS > p.EndNS:
			t.Errorf("span %d %s [%d,%d] is not inside its parent %s [%d,%d]", s.SpanID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	for _, name := range wantNames {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
	for _, l := range tf.Layers {
		if l.SelfMS < 0 || l.SelfMS > l.TotalMS {
			t.Errorf("layer %s: self %.3f ms of total %.3f ms", l.Name, l.SelfMS, l.TotalMS)
		}
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("serve_gates_I")
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	var out bytes.Buffer
	res, err := runTraced(w, testEnv, 400*time.Millisecond, testLadder, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	checkMetrics(t, res.Metrics, bf.PerLayer)
	for _, name := range []string{"server.coalesced_ratio", "server.rejected"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	for name, want := range map[string]float64{"server.streams_per_request": 1, "sched.rotations_per_op": 17, "sched.levels": 7} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if adder, _ := workloadByName("adder4_sched_I"); adder.pbsPerOp != 17 {
		t.Errorf("adder4_sched_I nominal PBS/op = %d, want 17", adder.pbsPerOp)
	}
	checkTrace(t, path, "client.GateBatch", "http.to_router", "router.Handler", "http.to_server", "server.Handler")
}

func TestTraceReplaySpansNest(t *testing.T) {
	want := map[string][]string{
		"gates_stream_I":  {"engine.StreamGate"},
		"adder4_sched_I":  {"sched.Compile", "sched.Execute", "engine.BatchGate"},
		"session_churn_I": {"client.RegisterKey", "client.GateBatch", "server.Handler"},
	}
	for name, spans := range want {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			path := filepath.Join(t.TempDir(), "trace.json")
			m := map[string]metric{}
			win, err := traceReplay(w, testEnv, 100*time.Millisecond, path, m, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if win.failed != 0 || win.attempted < 2 { // one op per replay at least
				t.Errorf("attempted=%d failed=%d first=%v", win.attempted, win.failed, win.firstErr)
			}
			if v := m["trace.overhead_ratio"].Value; !(v > 0) {
				t.Errorf("trace.overhead_ratio = %v", v)
			}
			checkTrace(t, path, spans...)
		})
	}
}

func TestCalibratedRoundsAndQuartiles(t *testing.T) {
	// Five rounds of ten ops, 10 ms each on the reference host, on a host
	// that is half as fast in rounds 1 and 2 (20 ms ops, host factor 2): at
	// the reference host's speed the window ran 100 ops/s with 10 ms ops
	// and 20 ms of CPU per op.
	var w window
	for i := 0; i < 5; i++ {
		f := 1.0
		if i == 1 || i == 2 {
			f = 2
		}
		lat := time.Duration(f * float64(10*time.Millisecond))
		r := round{wall: 10 * lat, cpu: 20 * lat, factor: f}
		for j := 0; j < 10; j++ {
			r.lats = append(r.lats, lat)
		}
		w.rounds = append(w.rounds, r)
		w.ops += 10
	}
	at, err := w.timed()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at.opsPerS-100) > 1e-9 || math.Abs(at.p50-10) > 1e-9 || math.Abs(at.cpuPerOp-20) > 1e-9 || at.factor != 1 {
		t.Errorf("timed = %+v, want 100 ops/s, p50 10ms, CPU/op 20ms, factor 1", at)
	}
	if lats := w.latencies(); len(lats) != 50 || lats[0] != 10 || lats[49] != 20 {
		t.Errorf("latencies as measured: %d values from %v to %v, want 50 from 10 to 20", len(lats), lats[0], lats[len(lats)-1])
	}
	if _, err := (window{rounds: make([]round, minRounds)}).timed(); err == nil {
		t.Error("a window without a completed op gave timed metrics")
	}

	// A window too short for its rounds stays open until it has minRounds,
	// one op per client each, and every client draws its ops in order.
	var drawn [2][]int
	short := runWindow(2, time.Nanosecond, newCalibrator(), func(c, i int) (func() error, error) {
		drawn[c] = append(drawn[c], i)
		return func() error { return nil }, nil
	})
	if short.attempted != 2*minRounds || short.ops != 2*minRounds || len(short.rounds) != minRounds {
		t.Errorf("a 1ns window attempted %d ops, kept %d in %d rounds, want %d in %d", short.attempted, short.ops, len(short.rounds), 2*minRounds, minRounds)
	}
	for c, is := range drawn {
		for j, i := range is {
			if i != j {
				t.Errorf("client %d drew ops %v, want them in order", c, is)
				break
			}
		}
	}
	for _, r := range short.rounds {
		if !(r.factor > 0.05 && r.factor < 50) {
			t.Errorf("host factor %v: the calibration burst is far from its reference time", r.factor)
		}
	}
	if f := hostFactor(calReference, 3*calReference); f != 2 {
		t.Errorf("host factor of bursts at 1x and 3x the reference = %v, want 2", f)
	}

	// statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{4, 1, 3, 2, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	med, iqr := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || math.Abs(iqr-1) > 1e-12 {
		t.Errorf("spread = median %v, IQR share %v; want 5.5 and 1", med, iqr)
	}
	if med, iqr := spread([]float64{3}); med != 3 || iqr != 0 {
		t.Errorf("spread of one value = %v %v, want 3 0", med, iqr)
	}
}

func writeRuns(t *testing.T, name string, scale float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var buf bytes.Buffer
	for seed := 1; seed <= 5; seed++ {
		res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{
			"pbs_per_s": {scale * (100 + float64(seed)), "PBS/s"},
			"op_p50_ms": {(100 + float64(seed)) / scale, "ms"},
			"setup_s":   {float64(seed), "s"},
		}}
		line, err := json.Marshal(runLine{Workload: workloads[0].name, Seed: int64(seed), Result: res})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s\n", line)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base, same, slow := writeRuns(t, "a.jsonl", 1), writeRuns(t, "b.jsonl", 1.01), writeRuns(t, "c.jsonl", 0.5)
	var out, errOut bytes.Buffer
	if code := compareFiles(benchmarkJSON, []string{base, same}, &out, &errOut); code != 0 {
		t.Errorf("comparing runs 1%% apart: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(benchmarkJSON, []string{base, slow}, &out, &errOut); code != 1 {
		t.Errorf("comparing with runs half as fast: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "WORSE > BOUND") {
		t.Errorf("output does not flag the regression:\n%s", out.String())
	}
	if code := compareFiles(benchmarkJSON, nil, io.Discard, io.Discard); code != 2 {
		t.Errorf("no files: exit %d, want 2", code)
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(tfhe.ParamsTest, []string{"-workload", "nope"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "gates_stream_I") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, errOut.String())
	}
	if code := run(tfhe.ParamsTest, []string{"-workload", "gates_stream_I", "-seconds", "0"}, &out, &errOut); code != 2 {
		t.Errorf("empty window: exit %d", code)
	}
	out.Reset()
	args := []string{"--workload", "gates_stream_I", "--seed", "5", "--seconds", "0.2", "--trace", "0"}
	if code := run(tfhe.ParamsTest, args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[key]; !ok {
			t.Errorf("result line has no %q", key)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(res))
	}
}
