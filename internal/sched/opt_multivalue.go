package sched

import (
	"repro/internal/noise"
	"repro/internal/tfhe"
)

// passMultiValue rewrites plain-LUT fan-out into multi-value groups:
// one-table lookups reading the same input wire with the same message
// space are collected across the whole DAG (same input implies same PBS
// level, so regrouping never breaks a dependency) and regrouped, in build
// order, into contiguous kindLUT sibling runs, each as wide as the one
// noise rule admits under parameter set p at its input's load, up to
// packWidth: a k-table group decides at 1/k of a plain LUT's margin, so
// packing never spends more of the budget than p leaves. Without p
// (N = 0) the rule cannot be evaluated and nothing packs. A packed group
// materializes at its first member's position; later members' consumers
// follow the wire remap. Leftover runs of one stay plain LUTs. Groups of
// two or more tables are left untouched: their packing (and its noise
// commitment) was the caller's choice, while a one-table group is a plain
// LUT however it was built. Outputs decode identically
// to the unpacked schedule but are not bitwise identical (the shared
// rotation uses a k×-finer packed test vector). Returns the number of
// LUT nodes packed into groups.
func passMultiValue(c *Circuit, p tfhe.Params) (*Circuit, int) {
	if p.N == 0 {
		return c, 0
	}
	type fanKey struct {
		in    Wire
		space int
	}
	members := make(map[fanKey][]Wire)
	var order []fanKey
	for i, n := range c.nodes {
		if n.kind != kindLUT || len(n.tables) != 1 {
			continue
		}
		fk := fanKey{in: n.in, space: n.space}
		if _, ok := members[fk]; !ok {
			order = append(order, fk)
		}
		members[fk] = append(members[fk], Wire(i))
	}
	_, load := c.loads(nil)
	chunkOf := make(map[Wire][]Wire) // first member → whole chunk
	headOf := make(map[Wire]Wire)    // member → first member
	packed := 0
	for _, fk := range order {
		width := packWidth
		for width >= 2 && noise.Check(p, noise.PBS{Node: int(fk.in), In: load[fk.in], Space: fk.space, K: width}) != nil {
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
				tables[j] = c.nodes[w].tables[0]
			}
			for j, w := range chunk {
				m[w] = emit(node{kind: kindLUT, in: m[n.in], space: n.space, tables: tables, mvIdx: j})
			}
			continue
		}
		m[i] = emit(remapNode(n, m))
	}
	return finishRemap(c, nodes, m), packed
}
