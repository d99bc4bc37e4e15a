package sched

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/tfhe"
)

// Config tunes compilation.
type Config struct {
	// Opt switches on the optimizer pipeline before levelization (OptAll,
	// with the parameter set it packs for). The zero value compiles the
	// circuit exactly as built, bitwise-faithful to RunSequential.
	Opt OptConfig
}

// DispatchKind discriminates what a dispatch executes.
type DispatchKind uint8

// The dispatch kinds: boolean gates batched pairwise under one op each,
// one shared lookup table batched over a ciphertext slice, or one shared
// multi-value table group batched over the group input ciphertexts.
const (
	DispatchGate DispatchKind = iota
	DispatchLUT
	DispatchMultiLUT
)

// Dispatch is one engine call: PBS nodes that share a test vector,
// batched together. That is binary gates (the sign test vector; Ops[j],
// node j's op, only selects its free linear pre-stage), or nodes with one
// exact lookup table or multi-value table list. A Level's dispatch holds
// every such node of the level; one Execute issues holds the ready ones
// of one rank. Nodes lists the node wires in build order. For
// DispatchMultiLUT, Nodes is group-major with stride k = len(Tables):
// Nodes[g·k+i] receives table i's output for group g, and every node of a
// group reads the same input wire.
type Dispatch struct {
	Kind   DispatchKind
	Ops    []GateOp // DispatchGate; one per node
	Space  int      // DispatchLUT, DispatchMultiLUT
	Table  []int    // DispatchLUT; shared by every node of the dispatch
	Tables [][]int  // DispatchMultiLUT; shared by every group of the dispatch
	Nodes  []Wire
	// Stream is always false: it is read only by benchmark/, and ROADMAP
	// item 2 deletes it.
	Stream bool
	// cpus is how many CPUs Execute claimed from the worker pool for the
	// dispatch; 0 when it claimed none.
	cpus int
}

// on returns the engine handle the dispatch runs on: e's handle on the
// CPUs Execute claimed for it, or e itself for a dispatch that holds no
// claim.
func (d Dispatch) on(e *engine.StreamingEngine) *engine.StreamingEngine {
	if d.cpus == 0 {
		return e
	}
	return e.On(d.cpus)
}

// Groups returns how many blind rotations a dispatch costs: one per node,
// except multi-value dispatches where one rotation serves a whole group.
func (d Dispatch) Groups() int {
	if d.Kind == DispatchMultiLUT {
		return len(d.Nodes) / len(d.Tables)
	}
	return len(d.Nodes)
}

// Level is one dependency-free layer of the schedule: every dispatch (and
// every node within each dispatch) depends only on earlier levels, so the
// whole level could execute concurrently.
type Level struct {
	Dispatches []Dispatch
	PBS        int // total blind rotations in the level
}

// Stats summarizes a schedule's shape.
type Stats struct {
	Levels      int // PBS depth of the circuit
	TotalPBS    int // total blind rotations per execution
	MaxLevelPBS int // widest level (rotations)
	Dispatches  int // engine calls per execution
	// Streamed is always zero: it is read only by benchmark/, and ROADMAP
	// item 2 deletes it.
	Streamed    int
	LinearNodes int // free nodes, folded as their operands resolve

	// Multi-value packing: LUT outputs served by shared rotations and
	// the rotations those shares saved versus one PBS per output.
	MultiValueOuts int
	RotationsSaved int

	// OptPasses records what each optimizer pass removed (nil when no
	// passes ran). The per-pass PBSRemoved entries sum to the total
	// rotation reduction versus compiling the same circuit unoptimized.
	OptPasses []PassStat
}

// Schedule is a compiled circuit: the tables Execute dispatches by, and
// the levelized plan that reports the circuit's shape.
type Schedule struct {
	levels []Level
	stats  Stats
	// nodes is the node count of the source circuit handed to Compile,
	// so Execute can reject a schedule paired with a different circuit.
	nodes int
	// circ is the circuit the schedule runs — the optimizer's rewrite
	// when passes ran, the source circuit itself otherwise. Execute
	// resolves wires against it.
	circ *Circuit

	// The dispatch tables of circ, indexed by wire. rank[w] is PBS node
	// w's rank: the longest PBS path from it to an output, itself
	// included (a multi-value group's, on its head). key[w] numbers its
	// Dispatch.Key among the schedule's. deps[w] counts the operand
	// references node w waits for, and users[userAt[w]:userAt[w+1]] lists
	// the nodes that reference wire w, once per reference. A multi-value
	// group waits, and is waited for, through its head.
	rank, key, deps []int32
	userAt, users   []int32

	// pbs is the distinct noise requirements of circ's bootstraps, each
	// on its first node (Circuit.budget): what Check evaluates under a
	// parameter set.
	pbs []noise.PBS
	// admitted is the Config.Opt.Params Compile admitted, for Execute.
	admitted tfhe.Params
}

// Levels returns the levelized dispatches. The slice is shared, not
// copied — treat it as read-only.
func (s *Schedule) Levels() []Level { return s.levels }

// Stats returns the schedule's shape summary.
func (s *Schedule) Stats() Stats { return s.stats }

// String renders a compact plan summary, e.g.
// "7 levels, 37 PBS (max 16/level), 12 dispatches, 9 rotations saved (multi-value)".
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d levels, %d PBS (max %d/level), %d dispatches",
		s.stats.Levels, s.stats.TotalPBS, s.stats.MaxLevelPBS, s.stats.Dispatches)
	if s.stats.RotationsSaved > 0 {
		fmt.Fprintf(&b, ", %d rotations saved (multi-value)", s.stats.RotationsSaved)
	}
	if saved := s.optPBSRemoved(); saved > 0 {
		fmt.Fprintf(&b, ", optimizer -%d PBS", saved)
	}
	return b.String()
}

// optPBSRemoved sums the rotations the optimizer passes removed.
func (s *Schedule) optPBSRemoved() int {
	saved := 0
	for _, p := range s.stats.OptPasses {
		saved += p.PBSRemoved
	}
	return saved
}

// Describe renders the full plan, one line per level plus the optimizer
// pass table — the stable, diffable digest the golden plan tests pin.
func (s *Schedule) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", s.String())
	for _, p := range s.stats.OptPasses {
		fmt.Fprintf(&b, "pass %s: rewrites=%d nodes=%+d pbs=%+d\n",
			p.Name, p.Rewrites, -p.NodesRemoved, -p.PBSRemoved)
	}
	for l, lv := range s.levels {
		fmt.Fprintf(&b, "level %d (%d PBS):", l+1, lv.PBS)
		for _, d := range lv.Dispatches {
			b.WriteByte(' ')
			switch d.Kind {
			case DispatchGate:
				fmt.Fprintf(&b, "gate x%d (%s)", len(d.Nodes), opMix(d.Ops))
			case DispatchLUT:
				fmt.Fprintf(&b, "lut:s%d x%d", d.Space, len(d.Nodes))
			case DispatchMultiLUT:
				fmt.Fprintf(&b, "mlut:s%dk%d x%d", d.Space, len(d.Tables), d.Groups())
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "linear nodes: %d\n", s.stats.LinearNodes)
	return b.String()
}

// opMix renders a gate dispatch's op counts in GateOp order, e.g.
// "AND×4 XOR×4".
func opMix(ops []GateOp) string {
	var counts [engine.NOT + 1]int
	for _, op := range ops {
		counts[op]++
	}
	var parts []string
	for op, n := range counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", GateOp(op), n))
		}
	}
	return strings.Join(parts, " ")
}

// Key is the dispatch's grouping key: the scheduler merges ready nodes
// into one dispatch, one engine call, exactly when their keys are equal.
// Every gate dispatch has the key "g" (they share the sign test vector);
// a LUT or multi-value key spells the kind, the space and every table
// entry, so only identical tables (count and order too) share a test
// vector.
func (d Dispatch) Key() string {
	var b strings.Builder
	switch d.Kind {
	case DispatchGate:
		return "g"
	case DispatchLUT:
		b.Grow(8 + 4*len(d.Table)) // one allocation: Compile spells every LUT node's key
		b.WriteString("l:")
		b.WriteString(strconv.Itoa(d.Space))
		writeTable(&b, d.Table)
	default:
		b.WriteString("m:")
		b.WriteString(strconv.Itoa(d.Space))
		for _, table := range d.Tables {
			b.WriteByte('|')
			writeTable(&b, table)
		}
	}
	return b.String()
}

// writeTable appends ":v" for every entry of table.
func writeTable(b *strings.Builder, table []int) {
	for _, v := range table {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(v))
	}
}

// Compile optimizes the circuit when cfg.Opt is on, then records what
// Execute dispatches by: each PBS node's rank, the longest PBS path from
// it to an output, and the dependency tables (the users of every wire,
// the operands every node waits for). It also levelizes the circuit for
// the report (Levels, Stats, Describe), and the noise load every
// bootstrap's input carries (Check): a PBS node's level is its
// longest-path PBS depth from the inputs (linear nodes are free and add
// no depth), and within a level nodes group by the test vector an engine
// call shares across its batch — all binary gates join one dispatch (the
// sign test vector), LUTs group by exact table. The schedule carries the
// optimized circuit: Execute is still called with the source circuit,
// whose inputs and output order the rewrite preserves.
// Given cfg.Opt.Params, Compile applies the one noise rule (Check) under
// it and returns its refusal.
func Compile(c *Circuit, cfg Config) (*Schedule, error) {
	s, err := plan(c, cfg)
	if p := cfg.Opt.Params; err == nil && p.N > 0 {
		if err = s.Check(p); err != nil {
			return nil, err
		}
		s.admitted = p
	}
	return s, err
}

// plan is Compile without the noise rule.
func plan(c *Circuit, cfg Config) (*Schedule, error) {
	exec, passes, err := Optimize(c, cfg.Opt)
	if err != nil {
		return nil, err
	}

	lvl := make([]int, len(exec.nodes))
	maxLvl := 0
	for i, n := range exec.nodes {
		switch n.kind {
		case kindInput:
			lvl[i] = 0
		case kindLin:
			d := 0
			for _, t := range n.terms {
				if lvl[t.W] > d {
					d = lvl[t.W]
				}
			}
			lvl[i] = d
		case kindGate:
			d := lvl[n.a]
			if lvl[n.b] > d {
				d = lvl[n.b]
			}
			lvl[i] = d + 1
		case kindLUT, kindMultiLUT:
			lvl[i] = lvl[n.in] + 1
		default:
			return nil, fmt.Errorf("sched: node %d has unknown kind %d", i, n.kind)
		}
		if lvl[i] > maxLvl {
			maxLvl = lvl[i]
		}
	}

	s := &Schedule{
		levels: make([]Level, maxLvl),
		nodes:  len(c.nodes),
		circ:   exec,
	}
	s.stats.OptPasses = passes
	s.index(exec)
	s.pbs = exec.budget()
	// groupIdx[l] maps a dispatch key to its index in levels[l].Dispatches,
	// so grouping preserves first-appearance (build) order.
	groupIdx := make([]map[int32]int, maxLvl)
	for i, n := range exec.nodes {
		if n.kind == kindLin {
			s.stats.LinearNodes++
		}
		if !n.dispatched() {
			continue
		}
		l := lvl[i] - 1
		if groupIdx[l] == nil {
			groupIdx[l] = make(map[int32]int)
		}
		di, ok := groupIdx[l][s.key[i]]
		if !ok {
			di = len(s.levels[l].Dispatches)
			groupIdx[l][s.key[i]] = di
			s.levels[l].Dispatches = append(s.levels[l].Dispatches, n.dispatch())
		}
		d := &s.levels[l].Dispatches[di]
		d.add(exec, Wire(i))
		s.levels[l].PBS++
		if n.kind == kindMultiLUT {
			s.stats.MultiValueOuts += len(n.tables)
			s.stats.RotationsSaved += len(n.tables) - 1
		}
	}

	for l := range s.levels {
		s.stats.Dispatches += len(s.levels[l].Dispatches)
		if s.levels[l].PBS > s.stats.MaxLevelPBS {
			s.stats.MaxLevelPBS = s.levels[l].PBS
		}
		s.stats.TotalPBS += s.levels[l].PBS
	}
	s.stats.Levels = maxLvl
	return s, nil
}

// dispatched reports whether node n is a unit of dispatch: a gate, a LUT,
// or the head of a multi-value group, which carries the whole group.
func (n node) dispatched() bool {
	return n.kind == kindGate || n.kind == kindLUT || (n.kind == kindMultiLUT && n.mvIdx == 0)
}

// dispatch returns an empty dispatch of the unit n's kind and test vector.
func (n node) dispatch() Dispatch {
	switch n.kind {
	case kindGate:
		return Dispatch{Kind: DispatchGate}
	case kindLUT:
		return Dispatch{Kind: DispatchLUT, Space: n.space, Table: n.table}
	default:
		return Dispatch{Kind: DispatchMultiLUT, Space: n.space, Tables: n.tables}
	}
}

// add appends the unit at wire w of c to the dispatch: a gate with its
// op, a LUT, or a multi-value group's k contiguous wires, which share one
// rotation.
func (d *Dispatch) add(c *Circuit, w Wire) {
	switch d.Kind {
	case DispatchGate:
		d.Ops = append(d.Ops, c.nodes[w].op)
		d.Nodes = append(d.Nodes, w)
	case DispatchLUT:
		d.Nodes = append(d.Nodes, w)
	default:
		for j := range d.Tables {
			d.Nodes = append(d.Nodes, w+Wire(j))
		}
	}
}

// operands calls f on every wire node n references, once per reference.
// A multi-value sibling other than the head references none: its group
// runs with the head.
func (n node) operands(f func(Wire)) {
	switch n.kind {
	case kindLin:
		for _, t := range n.terms {
			f(t.W)
		}
	case kindGate:
		f(n.a)
		f(n.b)
	case kindLUT:
		f(n.in)
	case kindMultiLUT:
		if n.mvIdx == 0 {
			f(n.in)
		}
	}
}

// index fills the schedule's dispatch tables for c.
func (s *Schedule) index(c *Circuit) {
	n := len(c.nodes)
	s.deps = make([]int32, n)
	s.userAt = make([]int32, n+1)
	for i, nd := range c.nodes {
		nd.operands(func(w Wire) {
			s.deps[i]++
			s.userAt[w+1]++
		})
	}
	for w := range n {
		s.userAt[w+1] += s.userAt[w]
	}
	s.users = make([]int32, s.userAt[n])
	next := slices.Clone(s.userAt[:n])
	for i, nd := range c.nodes {
		nd.operands(func(w Wire) {
			s.users[next[w]] = int32(i)
			next[w]++
		})
	}

	// Ranks, from the outputs back: a node reaches as far as its furthest
	// user, one PBS further if it is one itself.
	s.rank = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		var r int32
		for _, u := range s.users[s.userAt[i]:s.userAt[i+1]] {
			r = max(r, s.rank[u])
		}
		nd := c.nodes[i]
		if nd.kind == kindGate || nd.kind == kindLUT || nd.kind == kindMultiLUT {
			r++
		}
		if nd.kind == kindMultiLUT && nd.mvIdx == 0 {
			for j := 1; j < len(nd.tables); j++ {
				r = max(r, s.rank[i+j])
			}
		}
		s.rank[i] = r
	}

	s.key = make([]int32, n)
	ids := make(map[string]int32)
	for i, nd := range c.nodes {
		if !nd.dispatched() {
			continue
		}
		k := nd.dispatch().Key()
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		s.key[i] = id
	}
}
