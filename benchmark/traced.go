package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/tfhe"
)

// recordedLadder is the ladder of the recorded benchmark: rungs at the
// workloads' set, the _III and _n2048 rows at set III.
func recordedLadder(params tfhe.Params) ladderConfig {
	return ladderConfig{params: params, params3: tfhe.ParamsIII, small: 21, medium: 7, slow: 3}
}

// runTraced is the separate traced run: the ladder, a replay of the
// full-stack workload for the server's own counters, and a replay of the
// chosen workload at one op in flight with a span around every call into
// a layer, written to path. It reports every per-layer metric.
func runTraced(w workload, e env, d time.Duration, cfg ladderConfig, path string, out io.Writer) (result, error) {
	m, attempted, failed, err := runLadder(cfg, e.seed, out)
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	stats, err := serveStats(e, d/8, m)
	if err != nil {
		return result{}, err
	}
	replay, err := traceReplay(w, e, d/4, path, m, out)
	if err != nil {
		return result{}, err
	}
	for _, win := range []window{stats, replay} {
		attempted += win.attempted
		failed += win.failed
		if win.firstErr != nil {
			fmt.Fprintln(out, "failed op:", win.firstErr)
		}
	}
	printMetrics(out, m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// serveStats replays serve_gates_I under its real two-client load for d
// and adds the server's own view of it, from server.Stats, to m.
func serveStats(e env, d time.Duration, m map[string]metric) (window, error) {
	inst, err := setupServeGates(e)
	if err != nil {
		return window{}, fmt.Errorf("set up serve_gates_I: %w", err)
	}
	defer inst.close()
	win := runWindow(inst.clients, d, nil, inst.op)
	var requests, streams, coalesced, rejected int64
	for _, s := range inst.stats().Sessions {
		requests += s.Requests
		streams += s.Streams
		coalesced += s.Coalesced
		rejected += s.Rejected
	}
	if requests == 0 {
		return win, fmt.Errorf("serve_gates_I replay completed no request")
	}
	m["server.coalesced_ratio"] = metric{float64(coalesced) / float64(requests), "ratio"}
	m["server.streams_per_request"] = metric{float64(streams) / float64(requests), "ratio"}
	m["server.rejected"] = metric{float64(rejected), "count"}
	return win, nil
}

// traceReplay runs the workload at one op in flight for d untraced and
// then for d with spans, on the same instance, writes the spans to path
// and adds the ratio of the two latencies to m. The returned window holds
// the op counts of both replays.
func traceReplay(w workload, e env, d time.Duration, path string, m map[string]metric, out io.Writer) (window, error) {
	tr := newTracer()
	tr.off.Store(true) // set-up and the untraced replay record nothing
	e.tr, e.oneInFlight = tr, true
	inst, err := w.setup(e)
	if err != nil {
		return window{}, fmt.Errorf("set up %s: %w", w.name, err)
	}
	defer inst.close()
	meter.tr.Store(tr)
	defer meter.tr.Store(nil)
	rootOp := func(c, i int) (func() error, error) {
		defer tr.start("op")()
		return inst.op(c, i)
	}
	untraced := runWindow(1, d, nil, rootOp)
	tr.off.Store(false)
	traced := runWindow(1, d, nil, rootOp)
	tr.off.Store(true)
	both := window{attempted: untraced.attempted + traced.attempted, failed: untraced.failed + traced.failed, firstErr: untraced.firstErr}
	if both.firstErr == nil {
		both.firstErr = traced.firstErr
	}
	if untraced.ops == 0 || traced.ops == 0 {
		return both, fmt.Errorf("%s replay completed no op (first error: %v)", w.name, both.firstErr)
	}
	m["trace.overhead_ratio"] = metric{bestLatency(traced) / bestLatency(untraced), "ratio"}

	layers := layerTimes(tr.spans)
	counts := map[string]float64{"ops": float64(traced.ops), "spans": float64(len(tr.spans))}
	if inst.stats != nil {
		st := inst.stats()
		counts["server.evictions"] = float64(st.Evictions)
		counts["server.restores"] = float64(st.Restores)
	}
	if err := writeTrace(path, traceFile{Workload: w.name, Seed: e.seed, Layers: layers, Counts: counts, Spans: tr.spans}); err != nil {
		return both, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "traced replay of %s: %d ops, %d spans, written to %s\n", w.name, traced.ops, len(tr.spans), path)
	fmt.Fprintf(out, "  %-24s %6s %12s %12s\n", "layer", "spans", "total ms", "self ms")
	for _, l := range layers {
		fmt.Fprintf(out, "  %-24s %6d %12.3f %12.3f\n", l.Name, l.Spans, l.TotalMS, l.SelfMS)
	}
	return both, nil
}

// bestLatency is the lowest op latency of a window.
func bestLatency(w window) float64 { return w.latencies()[0] }
