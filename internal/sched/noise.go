package sched

import (
	"slices"

	"repro/internal/noise"
	"repro/internal/tfhe"
)

// loads appends to dst the noise load every wire of c carries, in node
// order, and returns c with its linear nodes flattened (passLinFold; c
// itself when there is nothing to fold), whose node indices are c's. It
// needs no parameter set: a circuit input carries a fresh encryption's
// load, every PBS output a bootstrapped one, whatever its input carried,
// and a linear node the load of its flattened form, so Lin(g, g) carries
// 4·L(g), not 2·L(g).
func (c *Circuit) loads(dst []noise.Load) (*Circuit, []noise.Load) {
	flat, _ := passLinFold(c)
	for _, n := range flat.nodes {
		l := noise.BootLoad
		switch n.kind {
		case kindInput:
			l = noise.FreshLoad
		case kindLin:
			l = termsLoad(dst, n.terms)
		}
		dst = append(dst, l)
	}
	return flat, dst
}

// budget returns the distinct noise requirements of c's bootstraps in
// build order, each on the first node that makes it (a multi-value group
// on its head): the rule refuses a requirement on its first node, so a
// later node that repeats one adds nothing to check. A gate's linear
// pre-stage computes a + b up to sign and offset: XOR and XNOR double the
// sum, but also the distance their values keep from the sign test
// vector's boundary, so every binary gate decides at noise.GateMargin on
// the load of a + b, flattened like a linear node: Gate(op, w, w)
// computes 2w, which carries 4·L(w).
func (c *Circuit) budget() []noise.PBS {
	var small [64]noise.Load // Compile runs per request: keep a small circuit's loads off the heap
	flat, load := c.loads(small[:0])
	var pbs []noise.PBS
	for i, n := range flat.nodes {
		b := noise.PBS{Node: i}
		switch {
		case n.kind == kindGate:
			_, sum := flatten(flat.nodes, 0, []Term{{W: n.a, C: 1}, {W: n.b, C: 1}})
			b.In = termsLoad(load, sum)
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
// offending node. Compile calls it under Config.Opt.Params, and Execute
// under its executor's set unless Compile admitted that one.
func (s *Schedule) Check(p tfhe.Params) error {
	return noise.Check(p, s.pbs...)
}
