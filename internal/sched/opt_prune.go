package sched

// passPrune drops every node no output transitively depends on, walking
// liveness back from the outputs. Input nodes are always kept so the
// circuit consumes the same input vector. Lookup groups shrink to their
// live siblings: a group left with one live output degenerates to a plain
// LUT (better noise margin, same rotation), and a fully dead group
// vanishes. Returns the rewritten circuit and the number of nodes
// dropped; with nothing to drop the input circuit is returned unchanged.
func passPrune(c *Circuit) (*Circuit, int) {
	live := liveMask(c)
	nodes := make([]node, 0, len(c.nodes))
	m := make([]Wire, len(c.nodes))
	for i := range m {
		m[i] = Wire(-1)
	}
	emit := func(n node) Wire {
		nodes = append(nodes, n)
		return Wire(len(nodes) - 1)
	}
	dropped := 0
	for i := 0; i < len(c.nodes); i++ {
		n := c.nodes[i]
		if n.kind == kindLUT {
			// Handle the whole group at its head.
			k := len(n.tables)
			var liveIdx []int
			for j := 0; j < k; j++ {
				if live[i+j] {
					liveIdx = append(liveIdx, j)
				}
			}
			switch len(liveIdx) {
			case k:
				for j := 0; j < k; j++ {
					m[i+j] = emit(remapNode(c.nodes[i+j], m))
				}
			case 0:
				dropped += k
			default:
				tables := make([][]int, len(liveIdx))
				for x, j := range liveIdx {
					tables[x] = n.tables[j]
				}
				for x, j := range liveIdx {
					m[i+j] = emit(node{kind: kindLUT, in: m[n.in], space: n.space, tables: tables, mvIdx: x})
				}
				dropped += k - len(liveIdx)
			}
			i += k - 1
			continue
		}
		if !live[i] {
			dropped++
			continue
		}
		m[i] = emit(remapNode(n, m))
	}
	if dropped == 0 {
		return c, 0
	}
	return finishRemap(c, nodes, m), dropped
}
