package sched

import (
	"fmt"

	"repro/internal/tfhe"
	"repro/internal/torus"
)

// This file is the optimizer pipeline driver that sits between
// Builder/FromSpecs and Compile. The individual passes live in the
// opt_*.go files:
//
//	opt_prune.go      dead-node pruning back from the outputs
//	opt_linfold.go    linear-chain folding with coefficient merging
//	opt_fuse.go       bootstrap fusion (gate chains and LUT∘LUT)
//	opt_cse.go        common-subexpression elimination
//	opt_multivalue.go multi-value packing rewrite of LUT fan-out
//
// Pass order is fixed: prune → linfold → fuse → cse → prune → mvpack.
// Pruning runs twice because fusion and CSE strand the producers they
// bypass; packing runs last so it only spends rotation shares on LUTs
// that survived. See docs/ARCHITECTURE.md "Optimizer passes" for the
// legality argument of each pass.

// DefaultPackWidth is the OptAll multi-value packing cap: up to this many
// same-input, same-space LUT outputs share one blind rotation. The
// executing parameter set must admit every packed group under the one
// noise rule (noise.Check), as for explicit MultiLUT groups; set
// OptConfig.Params when the parameters are known at compile time.
const DefaultPackWidth = 4

// OptConfig selects which optimizer passes Optimize (and Compile, via
// Config.Opt) runs. The zero value runs nothing.
type OptConfig struct {
	// Prune drops nodes no output depends on (inputs are always kept, so
	// the circuit interface is unchanged) and shrinks multi-value groups
	// with dead siblings. Decode- and noise-preserving for the surviving
	// outputs; bitwise-preserving except for shrunk groups.
	Prune bool
	// LinFold collapses nested linear-combination chains into one flat
	// term sum with merged coefficients (wrapping torus arithmetic is
	// associative and distributive, so folding is bitwise-preserving).
	LinFold bool
	// Fuse collapses bootstrap chains into single programmable
	// bootstraps: a 2-gate chain whose expanded operands span at most two
	// base wires becomes one gate (through free ±1 linear links, with
	// boolean-constant folding), and a LUT feeding a same-space LUT with
	// no other consumer composes into one table. Fusion assumes gate
	// operands carry the boolean encoding — which Builder circuits
	// satisfy by construction — and preserves decoded outputs, not bits.
	Fuse bool
	// CSE merges structurally identical gate/LUT/multi-LUT/linear nodes
	// (gates canonicalize their operand order; every binary gate's linear
	// stage is symmetric). Bitwise-preserving.
	CSE bool
	// MultiValue ≥ 2 rewrites same-input, same-space plain-LUT fan-out
	// into multi-value groups of up to MultiValue outputs per blind
	// rotation. Decode-preserving; not bitwise (the shared rotation uses
	// a k×-finer packed test vector, whose margin is k× smaller), and
	// the executing parameter set must admit every group under the one
	// noise rule. Explicit Builder.MultiLUT groups are left untouched —
	// their noise commitment was the caller's choice.
	MultiValue int
	// MultiValueBudget, when > 0, bounds space·k of every packed group.
	// 0 applies no bound (circuits are parameter-agnostic, exactly like
	// explicit MultiLUT groups). Params, when known, bounds more.
	MultiValueBudget int
	// Params, when set (N > 0), is the parameter set the circuit will
	// run under: packing then builds only groups the one noise rule
	// (noise.Check) admits at the load their input wire carries, so the
	// rewrite never turns a circuit the rule admits into one it refuses.
	// Runner.Run sets it to its engine's parameter set.
	Params tfhe.Params
}

// OptAll enables every pass with the default packing cap — the
// configuration behind the "optimized-scheduled" conformance backend and
// the server's opt-in circuit optimization.
func OptAll() OptConfig {
	return OptConfig{Prune: true, LinFold: true, Fuse: true, CSE: true, MultiValue: DefaultPackWidth}
}

// enabled reports whether any pass would run.
func (o OptConfig) enabled() bool {
	return o.Prune || o.LinFold || o.Fuse || o.CSE || o.MultiValue >= 2
}

// PassStat records one optimizer pass's measured effect on the circuit.
// Rewrites counts the nodes the pass rewrote or folded (its own metric);
// NodesRemoved/PBSRemoved are before/after deltas of the node count and
// blind-rotation cost, so a pass whose savings are realized by the later
// prune (fusion strands its bypassed producers) reports Rewrites > 0 with
// zero removals, and the prune entry banks the rest. NodesRemoved may be
// negative: fusion materializes free negation nodes.
type PassStat struct {
	Name         string
	Rewrites     int
	NodesRemoved int
	PBSRemoved   int
}

// pbsCost counts the blind rotations one execution of the circuit pays:
// one per gate or LUT node, one per multi-value group.
func pbsCost(c *Circuit) int {
	cost := 0
	for _, n := range c.nodes {
		switch n.kind {
		case kindGate, kindLUT:
			cost++
		case kindMultiLUT:
			if n.mvIdx == 0 {
				cost++
			}
		}
	}
	return cost
}

// Optimize runs the enabled passes over the circuit and returns the
// rewritten circuit (the input is never modified; with no passes enabled
// it is returned as-is) plus per-pass statistics. The optimized circuit
// consumes the same inputs and produces outputs that decode identically
// to the original on well-typed circuits; Compile records the stats so
// plan summaries show what each pass banked.
func Optimize(c *Circuit, opt OptConfig) (*Circuit, []PassStat, error) {
	if c == nil {
		return nil, nil, fmt.Errorf("sched: Optimize on a nil circuit")
	}
	cur := c
	var stats []PassStat
	idx := make(map[string]int)
	run := func(name string, on bool, f func(*Circuit) (*Circuit, int)) {
		if !on {
			return
		}
		nodesBefore, pbsBefore := len(cur.nodes), pbsCost(cur)
		next, rewrites := f(cur)
		nr, pr := nodesBefore-len(next.nodes), pbsBefore-pbsCost(next)
		cur = next
		if rewrites == 0 && nr == 0 && pr == 0 {
			return
		}
		if j, ok := idx[name]; ok {
			stats[j].Rewrites += rewrites
			stats[j].NodesRemoved += nr
			stats[j].PBSRemoved += pr
			return
		}
		idx[name] = len(stats)
		stats = append(stats, PassStat{Name: name, Rewrites: rewrites, NodesRemoved: nr, PBSRemoved: pr})
	}
	run("prune", opt.Prune, passPrune)
	run("linfold", opt.LinFold, passLinFold)
	run("fuse", opt.Fuse, passFuse)
	run("cse", opt.CSE, passCSE)
	run("prune", opt.Prune, passPrune)
	run("mvpack", opt.MultiValue >= 2, func(c *Circuit) (*Circuit, int) {
		return passMultiValue(c, opt.MultiValue, opt.MultiValueBudget, opt.Params)
	})
	return cur, stats, nil
}

// remapTerms rewrites the wire references of a term list through m.
func remapTerms(terms []Term, m []Wire) []Term {
	out := make([]Term, len(terms))
	for i, t := range terms {
		out[i] = Term{W: m[t.W], C: t.C}
	}
	return out
}

// remapNode rewrites one node's operand references through m. Table
// slices are shared, not copied — passes treat them as immutable.
func remapNode(n node, m []Wire) node {
	switch n.kind {
	case kindLin:
		n.terms = remapTerms(n.terms, m)
	case kindGate:
		n.a, n.b = m[n.a], m[n.b]
	case kindLUT, kindMultiLUT:
		n.in = m[n.in]
	}
	return n
}

// finishRemap assembles a rewritten circuit: the new node list plus the
// source circuit's input/output interface mapped through m.
func finishRemap(src *Circuit, nodes []node, m []Wire) *Circuit {
	out := &Circuit{nodes: nodes}
	out.inputs = make([]Wire, len(src.inputs))
	for i, w := range src.inputs {
		out.inputs[i] = m[w]
	}
	out.outputs = make([]Wire, len(src.outputs))
	for i, w := range src.outputs {
		out.outputs[i] = m[w]
	}
	return out
}

// liveMask marks the nodes some output transitively depends on. Inputs
// are always live: dropping one would change the circuit's interface.
func liveMask(c *Circuit) []bool {
	live := make([]bool, len(c.nodes))
	for _, w := range c.outputs {
		live[w] = true
	}
	for _, w := range c.inputs {
		live[w] = true
	}
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		n := c.nodes[i]
		switch n.kind {
		case kindLin:
			for _, t := range n.terms {
				live[t.W] = true
			}
		case kindGate:
			live[n.a] = true
			live[n.b] = true
		case kindLUT, kindMultiLUT:
			live[n.in] = true
		}
	}
	return live
}

// liveUses counts, per wire, how many live nodes (and outputs) consume
// it. Dead consumers are ignored so they never block a profitable
// rewrite between fusion rounds.
func liveUses(c *Circuit) []int {
	live := liveMask(c)
	uses := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		if !live[i] {
			continue
		}
		switch n.kind {
		case kindLin:
			for _, t := range n.terms {
				uses[t.W]++
			}
		case kindGate:
			uses[n.a]++
			uses[n.b]++
		case kindLUT, kindMultiLUT:
			uses[n.in]++
		}
	}
	for _, w := range c.outputs {
		uses[w]++
	}
	return uses
}

// boolMuTorus is the boolean encoding magnitude 1/8 — the sched-side
// mirror of the tfhe package's boolMu, used for constant folding.
func boolMuTorus(b bool) torus.Torus32 {
	mu := torus.FromFloat(0.125)
	if b {
		return mu
	}
	return -mu
}
