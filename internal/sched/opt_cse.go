package sched

import (
	"sort"
	"strconv"
	"strings"
)

// passCSE merges structurally identical nodes: two nodes with the same
// kind, operation, and (remapped) operands compute the same value, so
// every later reference is redirected to the first occurrence and the
// duplicate is dropped. Keys canonicalize what evaluation order cannot
// observe: gate operands sort (every binary gate's linear stage is a
// symmetric component-wise sum, so G(a,b) and G(b,a) are bitwise
// identical), and linear terms sort by wire (component-wise addition
// commutes). Multi-value groups merge only as whole groups with
// identical table lists. Inputs never merge — each stands for a
// distinct caller-supplied ciphertext. The pass is bitwise-preserving.
// Returns the number of duplicate nodes eliminated.
func passCSE(c *Circuit) (*Circuit, int) {
	nodes := make([]node, 0, len(c.nodes))
	m := make([]Wire, len(c.nodes))
	seen := make(map[string]Wire)
	merged := 0
	emit := func(n node) Wire {
		nodes = append(nodes, n)
		return Wire(len(nodes) - 1)
	}
	for i := 0; i < len(c.nodes); i++ {
		n := c.nodes[i]
		switch n.kind {
		case kindInput:
			m[i] = emit(n)
		case kindLin:
			nn := node{kind: kindLin, k: n.k, terms: remapTerms(n.terms, m)}
			key := linCSEKey(nn)
			if w, ok := seen[key]; ok {
				m[i] = w
				merged++
				continue
			}
			m[i] = emit(nn)
			seen[key] = m[i]
		case kindGate:
			a, b := m[n.a], m[n.b]
			ca, cb := a, b
			if cb < ca {
				ca, cb = cb, ca
			}
			key := "g:" + n.op.String() + ":" + strconv.Itoa(int(ca)) + ":" + strconv.Itoa(int(cb))
			if w, ok := seen[key]; ok {
				m[i] = w
				merged++
				continue
			}
			m[i] = emit(node{kind: kindGate, op: n.op, a: a, b: b})
			seen[key] = m[i]
		case kindLUT:
			in := m[n.in]
			key := "t:" + strconv.Itoa(int(in)) + ":" + Dispatch{Kind: DispatchLUT, Space: n.space, Table: n.table}.Key()
			if w, ok := seen[key]; ok {
				m[i] = w
				merged++
				continue
			}
			m[i] = emit(node{kind: kindLUT, in: in, space: n.space, table: n.table})
			seen[key] = m[i]
		case kindMultiLUT:
			// The head carries the whole group; k sibling wires map as a
			// block onto the kept group's siblings.
			k := len(n.tables)
			in := m[n.in]
			key := "m:" + strconv.Itoa(int(in)) + ":" + Dispatch{Kind: DispatchMultiLUT, Space: n.space, Tables: n.tables}.Key()
			if w, ok := seen[key]; ok {
				for j := 0; j < k; j++ {
					m[i+j] = w + Wire(j)
				}
				merged += k
			} else {
				seen[key] = Wire(len(nodes))
				for j := 0; j < k; j++ {
					nn := c.nodes[i+j]
					nn.in = in
					m[i+j] = emit(nn)
				}
			}
			i += k - 1
		}
	}
	if merged == 0 {
		return c, 0
	}
	return finishRemap(c, nodes, m), merged
}

// linCSEKey renders a linear node's canonical key: constant plus the
// terms sorted by wire (ties by coefficient). Sorting is sound because
// component-wise wrapping addition commutes, so any term order computes
// the same bits.
func linCSEKey(n node) string {
	terms := append([]Term(nil), n.terms...)
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].W != terms[j].W {
			return terms[i].W < terms[j].W
		}
		return terms[i].C < terms[j].C
	})
	var b strings.Builder
	b.WriteString("lin:")
	b.WriteString(strconv.FormatUint(uint64(n.k), 16))
	for _, t := range terms {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(int(t.W)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(int64(t.C), 10))
	}
	return b.String()
}
