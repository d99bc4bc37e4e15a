package sched

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/noise"
	"repro/internal/tfhe"
)

// passCSE merges structurally identical nodes: two nodes with the same
// kind, operation, and (remapped) operands compute the same value, so
// every later reference is redirected to the first occurrence and the
// duplicate is dropped. Keys canonicalize what evaluation order cannot
// observe: gate operands sort (every binary gate's linear stage is a
// symmetric component-wise sum, so G(a,b) and G(b,a) are bitwise
// identical), and linear terms sort by wire (component-wise addition
// commutes). Lookup groups merge only as whole groups with identical
// table lists. Inputs never merge — each stands for a distinct
// caller-supplied ciphertext. The pass is bitwise-preserving.
// Returns the number of duplicate nodes eliminated.
//
// Under a parameter set p (N > 0) the pass keeps the merges the one noise
// rule admits. A merge can raise a load: a sum that read two duplicates
// reads one wire twice (Lin(g₁, g₂) carries 2·L, Lin(g, g) 4·L). When the
// rule refuses the full rewrite, every bootstrap that would read a wire
// twice at a load p refuses keeps the duplicates it reads apart
// (refusedMerges), and the pass runs once more; if the rule refuses that
// rewrite too, c stays as it is.
func passCSE(c *Circuit, p tfhe.Params) (*Circuit, int) {
	out, merged, m := cse(c, nil)
	if merged == 0 || p.N == 0 || noise.Check(p, out.budget()...) == nil {
		return out, merged
	}
	apart := make([]bool, len(c.nodes))
	for _, d := range c.refusedMerges(m, p) {
		apart[d] = true
	}
	if out, merged, _ = cse(c, apart); noise.Check(p, out.budget()...) == nil {
		return out, merged
	}
	return c, 0
}

// cse is passCSE keeping the duplicates apart marks apart (none when
// apart is nil). It also returns where each wire of c went.
func cse(c *Circuit, apart []bool) (*Circuit, int, []Wire) {
	nodes := make([]node, 0, len(c.nodes))
	m := make([]Wire, len(c.nodes))
	seen := make(map[string]Wire)
	merged := 0
	// dup reports whether node i, whose key an earlier node has, merges
	// into it.
	dup := func(i int) bool { return apart == nil || !apart[i] }
	// first records the node that later duplicates of key merge into: its
	// first occurrence, whichever duplicates are kept apart.
	first := func(key string, w Wire) {
		if _, ok := seen[key]; !ok {
			seen[key] = w
		}
	}
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
			if w, ok := seen[key]; ok && dup(i) {
				m[i] = w
				merged++
				continue
			}
			m[i] = emit(nn)
			first(key, m[i])
		case kindGate:
			a, b := m[n.a], m[n.b]
			ca, cb := a, b
			if cb < ca {
				ca, cb = cb, ca
			}
			key := "g:" + n.op.String() + ":" + strconv.Itoa(int(ca)) + ":" + strconv.Itoa(int(cb))
			if w, ok := seen[key]; ok && dup(i) {
				m[i] = w
				merged++
				continue
			}
			m[i] = emit(node{kind: kindGate, op: n.op, a: a, b: b})
			first(key, m[i])
		case kindLUT:
			// The head carries the whole group; k sibling wires map as a
			// block onto the kept group's siblings.
			k := len(n.tables)
			in := m[n.in]
			key := "t:" + strconv.Itoa(int(in)) + ":" + n.dispatch().Key()
			if w, ok := seen[key]; ok && dup(i) {
				for j := 0; j < k; j++ {
					m[i+j] = w + Wire(j)
				}
				merged += k
			} else {
				first(key, Wire(len(nodes)))
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
		return c, 0, nil
	}
	return finishRemap(c, nodes, m), merged, m
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
