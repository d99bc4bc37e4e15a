package sched

import (
	"repro/internal/noise"
	"repro/internal/tfhe"
)

// passMultiValue rewrites plain-LUT fan-out into multi-value groups:
// LUT nodes reading the same input wire with the same message space are
// collected across the whole DAG (same input implies same PBS level, so
// regrouping never breaks a dependency) and regrouped, in build order,
// into contiguous kindMultiLUT sibling runs of up to cap outputs per
// shared blind rotation. A packed group materializes at its first
// member's position; later members' consumers follow the wire remap.
// Leftover runs of one stay plain LUTs. Explicit Builder.MultiLUT groups
// are left untouched: their packing (and its noise commitment) was the
// caller's choice. budget > 0 additionally bounds space·k per group, and
// a parameter set p (N > 0) bounds each group to the widest the one noise
// rule admits at its input's load: a k-table group decides at 1/k of a
// plain LUT's margin, so packing must not spend more of the budget than
// the parameter set leaves. Outputs decode identically to the unpacked
// schedule but are not bitwise identical (the shared rotation uses a
// k×-finer packed test vector). Returns the number of LUT nodes packed
// into groups.
func passMultiValue(c *Circuit, cap, budget int, p tfhe.Params) (*Circuit, int) {
	if cap < 2 {
		return c, 0
	}
	type fanKey struct {
		in    Wire
		space int
	}
	members := make(map[fanKey][]Wire)
	var order []fanKey
	for i, n := range c.nodes {
		if n.kind != kindLUT {
			continue
		}
		fk := fanKey{in: n.in, space: n.space}
		if _, ok := members[fk]; !ok {
			order = append(order, fk)
		}
		members[fk] = append(members[fk], Wire(i))
	}
	var load []noise.Load
	if p.N > 0 {
		load = c.loads(nil)
	}
	chunkOf := make(map[Wire][]Wire) // first member → whole chunk
	headOf := make(map[Wire]Wire)    // member → first member
	packed := 0
	for _, fk := range order {
		width := cap
		if budget > 0 && budget/fk.space < width {
			width = budget / fk.space
		}
		for load != nil && width >= 2 && noise.Check(p, noise.PBS{Node: int(fk.in), In: load[fk.in], Space: fk.space, K: width}) != nil {
			width--
		}
		if width < 2 {
			continue
		}
		ws := members[fk]
		for start := 0; start < len(ws); start += width {
			end := start + width
			if end > len(ws) {
				end = len(ws)
			}
			chunk := ws[start:end]
			if len(chunk) < 2 {
				continue
			}
			chunkOf[chunk[0]] = chunk
			for _, w := range chunk {
				headOf[w] = chunk[0]
			}
			packed += len(chunk)
		}
	}
	if packed == 0 {
		return c, 0
	}
	nodes := make([]node, 0, len(c.nodes))
	m := make([]Wire, len(c.nodes))
	emit := func(n node) Wire {
		nodes = append(nodes, n)
		return Wire(len(nodes) - 1)
	}
	for i := 0; i < len(c.nodes); i++ {
		n := c.nodes[i]
		if head, ok := headOf[Wire(i)]; ok {
			if head != Wire(i) {
				continue // emitted as a sibling at its head's position
			}
			chunk := chunkOf[head]
			tables := make([][]int, len(chunk))
			for j, w := range chunk {
				tables[j] = c.nodes[w].table
			}
			for j, w := range chunk {
				m[w] = emit(node{kind: kindMultiLUT, in: m[n.in], space: n.space, tables: tables, mvIdx: j})
			}
			continue
		}
		m[i] = emit(remapNode(n, m))
	}
	return finishRemap(c, nodes, m), packed
}
