package sched

import (
	"slices"

	"repro/internal/noise"
	"repro/internal/torus"
)

// passLinFold flattens nested linear-combination chains: every linear
// node is rewritten as its flattened form. Because every evaluation step
// is component-wise wrapping torus arithmetic, folding is
// bitwise-preserving. Nodes fold against already-folded predecessors, so
// one sweep fully flattens arbitrarily deep chains. Folded-out
// predecessors stay in place for the prune pass to collect. Returns the
// number of linear nodes rewritten; a circuit with nothing to fold comes
// back as is, its node list not copied.
func passLinFold(c *Circuit) (*Circuit, int) {
	nodes := c.nodes
	folded := 0
	for i, n := range c.nodes {
		if n.kind != kindLin {
			continue
		}
		k, terms := flatten(nodes, n.k, n.terms)
		if k == n.k && slices.Equal(terms, n.terms) {
			continue
		}
		if folded == 0 {
			nodes = slices.Clone(c.nodes)
		}
		nodes[i] = node{kind: kindLin, k: k, terms: terms}
		folded++
	}
	if folded == 0 {
		return c, 0
	}
	return &Circuit{nodes: nodes, inputs: c.inputs, outputs: c.outputs}, folded
}

// flatten returns k + Σ terms over the base wires of nodes (inputs and
// bootstrap outputs): a term on a linear node, whose own terms must
// already be flat, is inlined (constant and coefficients scaled by the
// term's coefficient, with wrapping int32 arithmetic — exactly the
// composition of MulScalar calls), duplicate wires merge their
// coefficients in first-appearance order, and zero coefficients drop.
func flatten(nodes []node, k torus.Torus32, terms []Term) (torus.Torus32, []Term) {
	var order []Wire
	coeff := make(map[Wire]int32)
	add := func(w Wire, cf int32) {
		if _, ok := coeff[w]; !ok {
			order = append(order, w)
		}
		coeff[w] += cf
	}
	for _, t := range terms {
		if t.C == 0 {
			continue
		}
		if sub := nodes[t.W]; sub.kind == kindLin {
			k += torus.Torus32(int32(sub.k) * t.C)
			for _, st := range sub.terms {
				add(st.W, st.C*t.C)
			}
			continue
		}
		add(t.W, t.C)
	}
	flat := make([]Term, 0, len(order))
	for _, w := range order {
		if cf := coeff[w]; cf != 0 {
			flat = append(flat, Term{W: w, C: cf})
		}
	}
	return k, flat
}

// termsLoad returns the noise load of Σ terms over distinct base wires:
// Σ C² times each wire's load, exact because distinct base wires carry
// independent noise.
func termsLoad(load []noise.Load, terms []Term) noise.Load {
	var l noise.Load
	for _, t := range terms {
		l = l.Add(float64(t.C), load[t.W])
	}
	return l
}
