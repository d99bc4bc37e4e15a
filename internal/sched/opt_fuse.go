package sched

import "repro/internal/engine"

// passFuse collapses bootstrap chains into single programmable
// bootstraps. Two shapes fuse:
//
//   - A LUT (a one-table lookup group, however it was built) whose input
//     is another same-space LUT with no other live consumer composes the
//     two tables into one (t2∘t1) — one blind rotation where the chain
//     paid two.
//   - A binary gate whose operands, chased through free ±1 linear links
//     (NOT chains) with boolean constants folded, expand over at most
//     two distinct base wires: the composed truth table synthesizes back
//     to an encrypted constant, a free copy/negation, or one gate over
//     the base wires (every two-variable boolean function is reachable
//     from the six ops plus free input negation). A producer gate is
//     only expanded when it and its linear links have no other live
//     consumer, so every rewrite strictly removes one rotation once the
//     stranded producer is pruned.
//
// Gate fusion assumes gate operands carry the boolean ±1/8 encoding
// (true of Builder circuits by construction); outputs decode identically
// but are not bitwise identical to the unfused schedule. The pass
// iterates until no rewrite applies, so longer chains collapse fully.
// Returns the total number of fused/rewritten nodes.
func passFuse(c *Circuit) (*Circuit, int) {
	total := 0
	for round := 0; round <= len(c.nodes); round++ {
		next, n := fuseRound(c)
		c = next
		total += n
		if n == 0 {
			break
		}
	}
	return c, total
}

// fuseRound performs one sweep of single-step fusions over the circuit.
// Analysis runs on the input circuit (use counts mask dead consumers, so
// producers stranded by earlier rounds never block a rewrite); deeper
// chains collapse across rounds.
func fuseRound(c *Circuit) (*Circuit, int) {
	uses := liveUses(c)
	nodes := make([]node, 0, len(c.nodes))
	m := make([]Wire, len(c.nodes))
	emit := func(n node) Wire {
		nodes = append(nodes, n)
		return Wire(len(nodes) - 1)
	}
	fused := 0
	for i := 0; i < len(c.nodes); i++ {
		n := c.nodes[i]
		switch n.kind {
		case kindLUT:
			if p := c.nodes[n.in]; len(n.tables) == 1 && p.kind == kindLUT && len(p.tables) == 1 && p.space == n.space && uses[n.in] == 1 {
				comp := make([]int, n.space)
				for mi := range comp {
					comp[mi] = n.tables[0][p.tables[0][mi]]
				}
				m[i] = emit(node{kind: kindLUT, in: m[p.in], space: n.space, tables: [][]int{comp}})
				fused++
				continue
			}
			m[i] = emit(remapNode(n, m))
		case kindGate:
			tt, bases, ok := fuseAnalyzeGate(c, uses, n)
			if !ok {
				m[i] = emit(remapNode(n, m))
				continue
			}
			m[i] = synthBool(tt, bases, m, emit)
			fused++
		default:
			m[i] = emit(remapNode(n, m))
		}
	}
	if fused == 0 {
		return c, 0
	}
	return finishRemap(c, nodes, m), fused
}

// chaseLit follows free ±1 single-term linear nodes (NOT chains and
// copies) from w down to a base wire, returning the base, the
// accumulated polarity flip, and the linear wires traversed.
func chaseLit(c *Circuit, w Wire) (base Wire, neg bool, path []Wire) {
	for {
		n := c.nodes[w]
		if n.kind != kindLin || n.k != 0 || len(n.terms) != 1 {
			return w, neg, path
		}
		switch n.terms[0].C {
		case 1:
		case -1:
			neg = !neg
		default:
			return w, neg, path
		}
		path = append(path, w)
		w = n.terms[0].W
	}
}

// boolConstOf reports whether a node is an encrypted boolean constant (a
// term-less linear node holding exactly ±1/8) and its value.
func boolConstOf(n node) (val, ok bool) {
	if n.kind != kindLin || len(n.terms) != 0 {
		return false, false
	}
	switch n.k {
	case boolMuTorus(true):
		return true, true
	case boolMuTorus(false):
		return false, true
	}
	return false, false
}

// litOperand is one analyzed gate operand: a boolean function over at
// most two base wires. kills marks an expanded producer gate whose
// rotation dies with the rewrite.
type litOperand struct {
	bases []Wire
	eval  func(v map[Wire]bool) bool
	kills bool
}

// analyzeLeaf resolves an operand without expanding producer gates:
// a folded boolean constant or a (possibly negated) base wire.
func analyzeLeaf(c *Circuit, w Wire) litOperand {
	base, neg, _ := chaseLit(c, w)
	if v, ok := boolConstOf(c.nodes[base]); ok {
		val := v != neg
		return litOperand{eval: func(map[Wire]bool) bool { return val }}
	}
	return litOperand{bases: []Wire{base}, eval: func(v map[Wire]bool) bool { return v[base] != neg }}
}

// analyzeExpand resolves an operand by expanding its producer gate,
// legal only when the producer and every linear link on the way have no
// other live consumer (so the producer's rotation is actually saved).
func analyzeExpand(c *Circuit, uses []int, w Wire) (litOperand, bool) {
	base, neg, path := chaseLit(c, w)
	n := c.nodes[base]
	if n.kind != kindGate || uses[base] != 1 {
		return litOperand{}, false
	}
	for _, p := range path {
		if uses[p] != 1 {
			return litOperand{}, false
		}
	}
	la := analyzeLeaf(c, n.a)
	lb := analyzeLeaf(c, n.b)
	op := n.op
	return litOperand{
		bases: unionBases(la.bases, lb.bases),
		eval:  func(v map[Wire]bool) bool { return op.Eval(la.eval(v), lb.eval(v)) != neg },
		kills: true,
	}, true
}

// unionBases merges base-wire sets preserving first-appearance order.
func unionBases(a, b []Wire) []Wire {
	out := append([]Wire(nil), a...)
	for _, w := range b {
		dup := false
		for _, x := range out {
			if x == w {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

// fuseAnalyzeGate decides whether gate node n can profitably fuse,
// returning the composed truth table over the returned base wires
// (bases[0] is truth-table bit 0, bases[1] bit 1). Expansion combos are
// tried most-aggressive first; a combo is accepted when it spans ≤ 2
// bases and either kills a producer rotation or degenerates the gate to
// a free node (≤ 1 base).
func fuseAnalyzeGate(c *Circuit, uses []int, n node) (tt [4]bool, bases []Wire, ok bool) {
	for _, combo := range [4][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		la, okA := litOperand{}, true
		if combo[0] {
			la, okA = analyzeExpand(c, uses, n.a)
		} else {
			la = analyzeLeaf(c, n.a)
		}
		lb, okB := litOperand{}, true
		if combo[1] {
			lb, okB = analyzeExpand(c, uses, n.b)
		} else {
			lb = analyzeLeaf(c, n.b)
		}
		if !okA || !okB {
			continue
		}
		bs := unionBases(la.bases, lb.bases)
		if len(bs) > 2 {
			continue
		}
		if !la.kills && !lb.kills && len(bs) >= 2 {
			continue // nothing saved: leave the gate alone
		}
		assign := make(map[Wire]bool, 2)
		op := n.op
		for idx := 0; idx < 4; idx++ {
			if len(bs) > 0 {
				assign[bs[0]] = idx&1 == 1
			}
			if len(bs) > 1 {
				assign[bs[1]] = idx&2 == 2
			}
			tt[idx] = op.Eval(la.eval(assign), lb.eval(assign))
		}
		return tt, bs, true
	}
	return tt, nil, false
}

// synthBool materializes a boolean function of ≤ 2 base wires into the
// circuit under construction: an encrypted constant, a free copy or
// negation, or one gate with free input negations — covering all 16
// two-variable functions. Degenerate dependence (a table ignoring one
// base) reduces before synthesis. Returns the wire holding the result.
func synthBool(tt [4]bool, bases []Wire, m []Wire, emit func(node) Wire) Wire {
	// Reduce away ignored variables.
	if len(bases) == 2 {
		switch {
		case tt[0] == tt[2] && tt[1] == tt[3]: // ignores bases[1]
			bases = bases[:1]
			tt = [4]bool{tt[0], tt[1], tt[0], tt[1]}
		case tt[0] == tt[1] && tt[2] == tt[3]: // ignores bases[0]
			bases = []Wire{bases[1]}
			tt = [4]bool{tt[0], tt[2], tt[0], tt[2]}
		}
	}
	if len(bases) == 1 && tt[0] == tt[1] {
		bases = nil
	}
	neg := func(w Wire) Wire {
		return emit(node{kind: kindLin, terms: []Term{{W: w, C: -1}}})
	}
	switch len(bases) {
	case 0:
		return emit(node{kind: kindLin, k: boolMuTorus(tt[0])})
	case 1:
		if !tt[0] && tt[1] { // identity
			return m[bases[0]]
		}
		return neg(m[bases[0]]) // the constant cases reduced above
	}
	op, pa, pb := findGate(tt)
	a, b := m[bases[0]], m[bases[1]]
	if pa {
		a = neg(a)
	}
	if pb {
		b = neg(b)
	}
	return emit(node{kind: kindGate, op: op, a: a, b: b})
}

// findGate searches the six batched ops with optional input negations
// for one realizing the (genuinely two-variable) truth table. Positive
// polarities are preferred so plain shapes synthesize plainly.
func findGate(tt [4]bool) (op engine.GateOp, pa, pb bool) {
	for _, op := range [6]engine.GateOp{engine.AND, engine.OR, engine.XOR, engine.NAND, engine.NOR, engine.XNOR} {
		for _, pol := range [4][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			match := true
			for idx := 0; idx < 4; idx++ {
				a := (idx&1 == 1) != pol[0]
				b := (idx&2 == 2) != pol[1]
				if op.Eval(a, b) != tt[idx] {
					match = false
					break
				}
			}
			if match {
				return op, pol[0], pol[1]
			}
		}
	}
	// Unreachable: the 6 ops with input negations cover all ten
	// two-variable-dependent functions; the degenerate six reduced in
	// synthBool.
	panic("sched: no gate realizes truth table")
}
