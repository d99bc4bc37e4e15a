package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share a trace ID;
// ParentID is 0 for the op's root span.
type span struct {
	TraceID  int64  `json:"trace_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer records spans in memory from the benchmark's own wrappers around
// the calls into each layer. It assumes one op in flight: a span's parent
// is whichever span is open when it starts, on any goroutine, which is how
// a request is followed from the client call through the router's handler
// into the server's without the program under test carrying an ID. A nil
// tracer records nothing, so the wrappers cost a nil check when tracing is
// off.
type tracer struct {
	off   atomic.Bool // set while the same instance runs its untraced replay
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int // indices into spans, innermost last
	trace int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns the function that closes it.
func (t *tracer) start(name string) func() {
	if t == nil || t.off.Load() {
		return func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{SpanID: int64(len(t.spans) + 1), Name: name, StartNS: int64(time.Since(t.epoch))}
	if n := len(t.open); n > 0 {
		parent := t.spans[t.open[n-1]]
		s.TraceID, s.ParentID = parent.TraceID, parent.SpanID
	} else {
		t.trace++
		s.TraceID = t.trace
	}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[idx].EndNS = int64(time.Since(t.epoch))
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == idx {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
	}
}

// tracedHandler wraps a layer's HTTP handler in a span. Like the
// transport it traces POSTs only, which leaves the health probes out.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			defer t.start(name)()
		}
		h.ServeHTTP(w, r)
	})
}

// layerTime is a span name's total and self time over a trace: self is the
// span's duration minus the part its child spans cover.
type layerTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layerTimes aggregates self and total time per span name, in order of
// first appearance (outermost layer first).
func layerTimes(spans []span) []layerTime {
	children := make(map[int64]int64, len(spans))
	for _, s := range spans {
		children[s.ParentID] += s.EndNS - s.StartNS
	}
	byName := map[string]*layerTime{}
	var order []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		dur := s.EndNS - s.StartNS
		lt.Spans++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-children[s.SpanID]) / 1e6
	}
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// traceFile is what the traced run leaves behind for inspection.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Layers   []layerTime        `json:"layers"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

// tracePath is where the traced run writes its spans, relative to the
// directory the benchmark is run from.
var tracePath = filepath.Join("benchmark", "out", "trace.json")

func writeTrace(path string, tf traceFile) error {
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
