package cycle

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestResourceSerializesJobs(t *testing.T) {
	var tr Trace
	r := NewResource("fft", 0, &tr)
	i1, d1 := r.Claim(0, 10, "a")
	i2, d2 := r.Claim(0, 10, "b")
	if i1 != 0 || d1 != 10 {
		t.Errorf("first job: issue %d done %d", i1, d1)
	}
	if i2 != 10 || d2 != 20 {
		t.Errorf("second job must wait: issue %d done %d", i2, d2)
	}
}

func TestResourceLatencyPipelining(t *testing.T) {
	r := NewResource("fft", 100, nil)
	// Two jobs of occupancy 10: issue back-to-back, completions 110, 120 —
	// the pipeline overlaps the latency.
	_, d1 := r.Claim(0, 10, "")
	_, d2 := r.Claim(0, 10, "")
	if d1 != 110 || d2 != 120 {
		t.Errorf("pipelined completions %d,%d want 110,120", d1, d2)
	}
}

func TestResourceRespectsReadyTime(t *testing.T) {
	r := NewResource("u", 0, nil)
	i, _ := r.Claim(50, 5, "")
	if i != 50 {
		t.Errorf("issue %d, want 50", i)
	}
}

func TestUtilizationSimple(t *testing.T) {
	var tr Trace
	tr.Record("u", "", 0, 50)
	if got := tr.Utilization("u", 0, 100); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
}

func TestUtilizationMergesOverlaps(t *testing.T) {
	var tr Trace
	tr.Record("u", "", 0, 60)
	tr.Record("u", "", 40, 80) // overlapping instance
	if got := tr.Utilization("u", 0, 100); got != 0.8 {
		t.Errorf("utilization = %v, want 0.8", got)
	}
}

func TestUtilizationClipsWindow(t *testing.T) {
	var tr Trace
	tr.Record("u", "", 0, 1000)
	if got := tr.Utilization("u", 100, 200); got != 1.0 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
}

func TestUtilizationBoundedProperty(t *testing.T) {
	f := func(starts []uint16, lens []uint8) bool {
		var tr Trace
		for i := range starts {
			l := Time(1)
			if i < len(lens) {
				l = Time(lens[i]) + 1
			}
			tr.Record("u", "", Time(starts[i]), Time(starts[i])+l)
		}
		u := tr.Utilization("u", 0, 70000)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTraceEnd(t *testing.T) {
	var tr Trace
	tr.Record("a", "", 0, 10)
	tr.Record("b", "", 5, 99)
	if tr.End() != 99 {
		t.Errorf("End = %d, want 99", tr.End())
	}
}

func TestUnitsOrder(t *testing.T) {
	var tr Trace
	tr.Record("rot", "", 0, 1)
	tr.Record("fft", "", 0, 1)
	tr.Record("rot", "", 2, 3)
	u := tr.Units()
	if len(u) != 2 || u[0] != "rot" || u[1] != "fft" {
		t.Errorf("Units = %v", u)
	}
}

func TestGanttRendersRows(t *testing.T) {
	var tr Trace
	tr.Record("rotator", "1", 0, 50)
	tr.Record("fft", "2", 50, 100)
	g := tr.Gantt(0, 100, 40)
	if !strings.Contains(g, "rotator") || !strings.Contains(g, "fft") {
		t.Fatalf("missing unit rows:\n%s", g)
	}
	if !strings.Contains(g, "1") || !strings.Contains(g, "2") {
		t.Fatalf("missing labels:\n%s", g)
	}
}

func TestGanttEmptyWindow(t *testing.T) {
	var tr Trace
	if g := tr.Gantt(10, 10, 40); g != "" {
		t.Errorf("expected empty chart, got %q", g)
	}
}

func TestClaimRecordsTrace(t *testing.T) {
	var tr Trace
	r := NewResource("u", 0, &tr)
	r.Claim(0, 10, "x")
	if len(tr.Intervals) != 1 || tr.Intervals[0].Label != "x" {
		t.Fatalf("trace = %+v", tr.Intervals)
	}
}

func TestZeroOccupancyNotTraced(t *testing.T) {
	var tr Trace
	r := NewResource("u", 0, &tr)
	r.Claim(0, 0, "x")
	if len(tr.Intervals) != 0 {
		t.Fatal("zero-occupancy claim should not be traced")
	}
}
