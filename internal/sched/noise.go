package sched

import (
	"slices"

	"repro/internal/noise"
	"repro/internal/tfhe"
)

// loads appends to dst the noise load every wire of c carries, in node
// order. It needs no parameter set: a circuit input carries a fresh
// encryption's load, a linear node Σ c² times its operands' loads, and
// every PBS output a bootstrapped one, whatever its input carried.
func (c *Circuit) loads(dst []noise.Load) []noise.Load {
	for _, n := range c.nodes {
		l := noise.BootLoad
		switch n.kind {
		case kindInput:
			l = noise.FreshLoad
		case kindLin:
			l = noise.Load{}
			for _, t := range n.terms {
				l = l.Add(float64(t.C), dst[t.W])
			}
		}
		dst = append(dst, l)
	}
	return dst
}

// budget returns the distinct noise requirements of c's bootstraps in
// build order, each on the first node that makes it (a multi-value group
// on its head): the rule refuses a requirement on its first node, so a
// later node that repeats one adds nothing to check. A gate's linear
// pre-stage adds its two operands' loads at weight 1: XOR and XNOR double
// the sum, but also the distance their values keep from the sign test
// vector's boundary, so every binary gate decides at noise.GateMargin on
// the sum of its operands' loads.
func (c *Circuit) budget() []noise.PBS {
	var small [64]noise.Load // Compile runs per request: keep a small circuit's loads off the heap
	load := c.loads(small[:0])
	var pbs []noise.PBS
	for i, n := range c.nodes {
		b := noise.PBS{Node: i}
		switch {
		case n.kind == kindGate:
			b.In = load[n.a].Add(1, load[n.b])
		case n.kind == kindLUT:
			b.In, b.Space, b.K = load[n.in], n.space, 1
		case n.kind == kindMultiLUT && n.mvIdx == 0:
			b.In, b.Space, b.K = load[n.in], n.space, len(n.tables)
		default:
			continue
		}
		if !slices.ContainsFunc(pbs, func(q noise.PBS) bool { return q.In == b.In && q.Space == b.Space && q.K == b.K }) {
			pbs = append(pbs, b)
		}
	}
	return pbs
}

// Check applies the one noise rule (noise.Check) to every bootstrap of
// the circuit the schedule runs, under parameter set p: it refuses a
// circuit p cannot compute before any of it runs, with the first
// offending node. Execute calls it; a caller that wants the refusal
// before committing resources (the gate service, before it takes a
// backpressure token) calls it first.
func (s *Schedule) Check(p tfhe.Params) error {
	return noise.Check(p, s.pbs...)
}
