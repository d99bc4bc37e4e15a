package sched

import (
	"fmt"
	"slices"

	"repro/internal/noise"
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

// packWidth caps multi-value packing: up to this many same-input,
// same-space LUT outputs share one blind rotation, when the one noise
// rule admits that many at the group's input load.
const packWidth = 4

// OptConfig switches the optimizer pipeline on (OptAll) for one parameter
// set. The zero value runs nothing: Compile then runs the circuit exactly
// as built.
type OptConfig struct {
	// Params is the parameter set the circuit will run under, which
	// Compile checks it against (noise.Check), pipeline on or off. Packing
	// builds only groups the rule admits at their input's load; without
	// Params (N = 0) nothing packs. Runner.Run sets its engine's set.
	Params tfhe.Params
	on     bool
}

// OptAll switches on the whole pipeline — the configuration behind the
// "optimized-scheduled" conformance backend and the gate service's opt-in
// circuit optimization. Set Params for packing.
func OptAll() OptConfig { return OptConfig{on: true} }

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
// one per gate node, one per lookup group.
func pbsCost(c *Circuit) int {
	cost := 0
	for _, n := range c.nodes {
		if n.dispatched() {
			cost++
		}
	}
	return cost
}

// Optimize runs the pipeline over the circuit and returns the rewritten
// circuit (the input is never modified; with the pipeline off it is
// returned as-is) plus per-pass statistics. The optimized circuit
// consumes the same inputs and produces outputs that decode identically
// to the original on well-typed circuits; Compile records the stats so
// plan summaries show what each pass banked. Under opt.Params, a circuit
// the one noise rule admits stays admitted: a pass whose rewrite the
// rule refuses is dropped. Only CSE can raise a load — merging duplicate
// bootstraps that one sum reads turns independent noise into a repeated
// term (Lin(g₁, g₂) carries 2·L, Lin(g, g) 4·L) — so CSE keeps just the
// merges the rule admits.
func Optimize(c *Circuit, opt OptConfig) (*Circuit, []PassStat, error) {
	if c == nil {
		return nil, nil, fmt.Errorf("sched: Optimize on a nil circuit")
	}
	if !opt.on {
		return c, nil, nil
	}
	admitted := func(c *Circuit) bool { return noise.Check(opt.Params, c.budget()...) == nil }
	mustAdmit := opt.Params.N > 0 && admitted(c)
	cur := c
	var stats []PassStat
	run := func(name string, f func(*Circuit) (*Circuit, int)) {
		nodesBefore, pbsBefore := len(cur.nodes), pbsCost(cur)
		next, rewrites := f(cur)
		if next != cur && mustAdmit && !admitted(next) {
			return
		}
		nr, pr := nodesBefore-len(next.nodes), pbsBefore-pbsCost(next)
		cur = next
		if rewrites == 0 && nr == 0 && pr == 0 {
			return
		}
		j := slices.IndexFunc(stats, func(p PassStat) bool { return p.Name == name })
		if j < 0 {
			stats = append(stats, PassStat{Name: name, Rewrites: rewrites, NodesRemoved: nr, PBSRemoved: pr})
			return
		}
		stats[j].Rewrites += rewrites
		stats[j].NodesRemoved += nr
		stats[j].PBSRemoved += pr
	}
	run("prune", passPrune)
	run("linfold", passLinFold)
	run("fuse", passFuse)
	var rule tfhe.Params // the set CSE's merges must stay admitted under, if any
	if mustAdmit {
		rule = opt.Params
	}
	run("cse", func(c *Circuit) (*Circuit, int) { return passCSE(c, rule) })
	run("prune", passPrune)
	run("mvpack", func(c *Circuit) (*Circuit, int) { return passMultiValue(c, opt.Params) })
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
	case kindLUT:
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
		case kindLUT:
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
		case kindLUT:
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
