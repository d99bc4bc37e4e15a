package cycle

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a point in simulated time, measured in clock cycles.
type Time int64

// Interval is a half-open busy interval [Start, End) of a resource,
// annotated with a label (e.g. which LWE the unit was processing).
type Interval struct {
	Unit  string
	Label string
	Start Time
	End   Time
}

// Trace collects busy intervals from all resources of a simulation.
// The zero value is ready to use.
type Trace struct {
	Intervals []Interval
}

// Record appends a busy interval.
func (t *Trace) Record(unit, label string, start, end Time) {
	t.Intervals = append(t.Intervals, Interval{Unit: unit, Label: label, Start: start, End: end})
}

// Units returns the distinct unit names in first-appearance order.
func (t *Trace) Units() []string {
	seen := make(map[string]bool)
	var out []string
	for _, iv := range t.Intervals {
		if !seen[iv.Unit] {
			seen[iv.Unit] = true
			out = append(out, iv.Unit)
		}
	}
	return out
}

// Utilization returns the fraction of [from, to) during which the named
// unit was busy. Overlapping recorded intervals are merged first, so a
// resource replicated into multiple instances reports per-cluster
// utilization correctly.
func (t *Trace) Utilization(unit string, from, to Time) float64 {
	if to <= from {
		return 0
	}
	var ivs []Interval
	for _, iv := range t.Intervals {
		if iv.Unit == unit && iv.End > from && iv.Start < to {
			s, e := iv.Start, iv.End
			if s < from {
				s = from
			}
			if e > to {
				e = to
			}
			ivs = append(ivs, Interval{Start: s, End: e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var busy, cursor Time
	cursor = from
	for _, iv := range ivs {
		if iv.End <= cursor {
			continue
		}
		s := iv.Start
		if s < cursor {
			s = cursor
		}
		busy += iv.End - s
		cursor = iv.End
	}
	return float64(busy) / float64(to-from)
}

// End returns the largest interval end time (the makespan).
func (t *Trace) End() Time {
	var end Time
	for _, iv := range t.Intervals {
		if iv.End > end {
			end = iv.End
		}
	}
	return end
}

// Gantt renders an ASCII Gantt chart of the trace over [from, to) with the
// given number of character columns, one row per unit — the textual
// equivalent of the paper's Fig 8 timing diagram. Cells show the first rune
// of the busy interval's label ('#' when unlabeled).
func (t *Trace) Gantt(from, to Time, cols int) string {
	if to <= from || cols <= 0 {
		return ""
	}
	units := t.Units()
	width := 0
	for _, u := range units {
		if len(u) > width {
			width = len(u)
		}
	}
	var b strings.Builder
	span := float64(to - from)
	for _, u := range units {
		row := make([]rune, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range t.Intervals {
			if iv.Unit != u || iv.End <= from || iv.Start >= to {
				continue
			}
			mark := '#'
			if iv.Label != "" {
				mark = rune(iv.Label[0])
			}
			c0 := int(float64(iv.Start-from) / span * float64(cols))
			c1 := int(float64(iv.End-from)/span*float64(cols)) + 1
			if c0 < 0 {
				c0 = 0
			}
			if c1 > cols {
				c1 = cols
			}
			for c := c0; c < c1; c++ {
				row[c] = mark
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", width, u, string(row))
	}
	fmt.Fprintf(&b, "%-*s  %d%scycles%s%d\n", width, "", from,
		strings.Repeat(" ", max(1, cols/2-8)), strings.Repeat(" ", max(1, cols/2-8)), to)
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Resource models a fully pipelined hardware unit: a new job can be issued
// every (occupancy) cycles, and jobs complete (latency) cycles after issue.
// Claim serializes jobs on the resource and records the busy interval.
type Resource struct {
	Name    string
	Latency Time // pipeline depth in cycles (completion = issue + occupancy + latency)

	trace    *Trace
	nextFree Time
}

// NewResource creates a resource attached to an optional trace.
func NewResource(name string, latency Time, trace *Trace) *Resource {
	return &Resource{Name: name, Latency: latency, trace: trace}
}

// Claim issues a job arriving at time ready that occupies the resource for
// occ cycles. It returns the issue time and the completion time (when the
// result is available downstream).
func (r *Resource) Claim(ready Time, occ Time, label string) (issue, done Time) {
	issue = ready
	if r.nextFree > issue {
		issue = r.nextFree
	}
	r.nextFree = issue + occ
	done = issue + occ + r.Latency
	if r.trace != nil && occ > 0 {
		r.trace.Record(r.Name, label, issue, issue+occ)
	}
	return issue, done
}

// NextFree returns the earliest time a new job could be issued.
func (r *Resource) NextFree() Time { return r.nextFree }
