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
	// Opt switches on the optimizer pipeline before planning (OptAll,
	// with the parameter set it packs for). The zero value compiles the
	// circuit exactly as built, bitwise-faithful to RunSequential.
	Opt OptConfig
}

// DispatchKind discriminates what a dispatch executes.
type DispatchKind uint8

// The dispatch kinds: boolean gates batched pairwise under one op each,
// or one shared lookup group of k ≥ 1 tables batched over the group
// input ciphertexts.
const (
	DispatchGate DispatchKind = iota
	DispatchLUT
)

// Dispatch is one engine call: PBS nodes that share a test vector,
// batched together. That is binary gates (the sign test vector; Ops[j],
// node j's op, only selects its free linear pre-stage), or lookup groups
// with one exact table list. A Level's dispatch holds every such node of
// the level's rank; one Execute issues holds the ready ones among them,
// so it is never larger. Nodes lists the node wires in build order. For
// DispatchLUT, Nodes is group-major with stride k = len(Tables):
// Nodes[g·k+i] receives table i's output for group g, and every node of
// a group reads the same input wire; with one table, each node is a
// group of its own.
type Dispatch struct {
	Kind   DispatchKind
	Ops    []GateOp // DispatchGate; one per node
	Space  int      // DispatchLUT
	Tables [][]int  // DispatchLUT; shared by every group of the dispatch
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

// Groups returns how many blind rotations a dispatch costs: one per gate,
// and one per lookup group, which serves all its tables.
func (d Dispatch) Groups() int {
	if d.Kind == DispatchLUT {
		return len(d.Nodes) / len(d.Tables)
	}
	return len(d.Nodes)
}

// Level is one rank of the schedule: the PBS nodes whose longest PBS path
// to an output, themselves included, is the same. Level 1 holds the
// highest rank and the last level rank 1. A node's operands all have a
// higher rank, so every dispatch (and every node within each dispatch)
// depends only on earlier levels, and the whole level could execute
// concurrently.
type Level struct {
	Dispatches []Dispatch
	PBS        int // total blind rotations in the level
}

// Stats summarizes a schedule's shape.
type Stats struct {
	Levels      int // PBS depth of the circuit
	TotalPBS    int // total blind rotations per execution
	MaxLevelPBS int // widest level (rotations)
	Dispatches  int // plan dispatches: Execute makes at least this many engine calls
	// Streamed is always zero: it is read only by benchmark/, and ROADMAP
	// item 2 deletes it.
	Streamed    int
	LinearNodes int // free nodes, folded as their operands resolve

	// Multi-value packing: LUT outputs served by rotations shared by two
	// or more tables, and the rotations those shares saved versus one PBS
	// per output. A one-table group is a plain lookup and counts in
	// neither.
	MultiValueOuts int
	RotationsSaved int

	// OptPasses records what each optimizer pass removed (nil when no
	// passes ran). The per-pass PBSRemoved entries sum to the total
	// rotation reduction versus compiling the same circuit unoptimized.
	OptPasses []PassStat
}

// Schedule is a compiled circuit: the tables Execute dispatches by, and
// the plan they make, the levels by rank that Execute's dispatches are
// drawn from.
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

// Levels returns the plan's dispatches, level by level. The slice is
// shared, not copied — treat it as read-only.
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
				if k := len(d.Tables); k > 1 {
					fmt.Fprintf(&b, "mlut:s%dk%d x%d", d.Space, k, d.Groups())
				} else {
					fmt.Fprintf(&b, "lut:s%d x%d", d.Space, len(d.Nodes))
				}
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
// a lookup key spells the space and every entry of every table, so only
// identical table lists (count and order too) share a test vector.
func (d Dispatch) Key() string {
	if d.Kind == DispatchGate {
		return "g"
	}
	var b strings.Builder
	b.Grow(8 + len(d.Tables)*(1+4*d.Space)) // one allocation: Compile spells a key per run of nodes on one table list
	b.WriteString("l:")
	b.WriteString(strconv.Itoa(d.Space))
	for _, table := range d.Tables {
		b.WriteByte('|')
		for _, v := range table {
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(v))
		}
	}
	return b.String()
}

// Compile optimizes the circuit when cfg.Opt is on, then records what
// Execute dispatches by: each PBS node's rank, the longest PBS path from
// it to an output (linear nodes are free and add none), and the
// dependency tables (the users of every wire, the operands every node
// waits for). From the ranks it builds the plan (Levels, Stats,
// Describe): level l holds the PBS nodes of rank Levels−l+1, highest
// rank first, and within a level nodes group by the test vector an
// engine call shares across its batch — all binary gates join one
// dispatch (the sign test vector), lookup groups by exact table list, a
// plain LUT being a group of one table. Execute issues the ready nodes of
// one rank and one key at a time, so each of its engine calls is a subset
// of one of these dispatches. The schedule carries the optimized circuit:
// Execute is still called with the source circuit, whose inputs and
// output order the rewrite preserves.
// Given cfg.Opt.Params, Compile applies the one noise rule (Check) under
// it first, and returns its refusal before it plans anything.
func Compile(c *Circuit, cfg Config) (*Schedule, error) {
	exec, passes, err := Optimize(c, cfg.Opt)
	if err != nil {
		return nil, err
	}
	s := &Schedule{nodes: len(c.nodes), circ: exec, pbs: exec.budget()}
	if p := cfg.Opt.Params; p.N > 0 {
		if err := s.Check(p); err != nil {
			return nil, err
		}
		s.admitted = p
	}

	s.stats.OptPasses = passes
	s.index(exec)
	for _, r := range s.rank {
		s.stats.Levels = max(s.stats.Levels, int(r))
	}
	s.levels = make([]Level, s.stats.Levels)
	// group maps a unit's level and key to its dispatch's index in the
	// level, so grouping preserves first-appearance (build) order.
	group := make(map[int64]int)
	for i, n := range exec.nodes {
		if n.kind == kindLin {
			s.stats.LinearNodes++
		}
		if !n.dispatched() {
			continue
		}
		l := s.stats.Levels - int(s.rank[i])
		lv := &s.levels[l]
		g := int64(l)<<32 | int64(s.key[i])
		di, ok := group[g]
		if !ok {
			di = len(lv.Dispatches)
			group[g] = di
			lv.Dispatches = append(lv.Dispatches, n.dispatch())
		}
		lv.Dispatches[di].add(exec, Wire(i))
		lv.PBS++
		if k := len(n.tables); k > 1 {
			s.stats.MultiValueOuts += k
			s.stats.RotationsSaved += k - 1
		}
	}

	for _, lv := range s.levels {
		s.stats.Dispatches += len(lv.Dispatches)
		s.stats.MaxLevelPBS = max(s.stats.MaxLevelPBS, lv.PBS)
		s.stats.TotalPBS += lv.PBS
	}
	return s, nil
}

// dispatched reports whether node n is a unit of dispatch: a gate, or
// the head of a lookup group, which carries the whole group.
func (n node) dispatched() bool {
	return n.kind == kindGate || (n.kind == kindLUT && n.mvIdx == 0)
}

// dispatch returns an empty dispatch of the unit n's kind and test vector.
func (n node) dispatch() Dispatch {
	if n.kind == kindGate {
		return Dispatch{Kind: DispatchGate}
	}
	return Dispatch{Kind: DispatchLUT, Space: n.space, Tables: n.tables}
}

// add appends the unit at wire w of c to the dispatch: a gate with its
// op, or a lookup group's k contiguous wires, which share one rotation.
func (d *Dispatch) add(c *Circuit, w Wire) {
	if d.Kind == DispatchGate {
		d.Ops = append(d.Ops, c.nodes[w].op)
		d.Nodes = append(d.Nodes, w)
		return
	}
	for j := range d.Tables {
		d.Nodes = append(d.Nodes, w+Wire(j))
	}
}

// operands calls f on every wire node n references, once per reference.
// A lookup sibling other than the head references none: its group runs
// with the head.
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
		if nd.kind == kindGate || nd.kind == kindLUT {
			r++
		}
		if nd.kind == kindLUT && nd.mvIdx == 0 {
			for j := 1; j < len(nd.tables); j++ {
				r = max(r, s.rank[i+j])
			}
		}
		s.rank[i] = r
	}

	// A run of groups on one table list (a batch built by LUTs) spells
	// its key once: a group on the table list of the
	// last dispatched unit takes its id. Gates have no table and share
	// the zero identity.
	type table struct {
		p *[]int // the table list's first table
		n int
	}
	s.key = make([]int32, n)
	ids := make(map[string]int32)
	last, lastID := table{}, int32(-1)
	for i, nd := range c.nodes {
		if !nd.dispatched() {
			continue
		}
		var t table
		if nd.kind == kindLUT {
			t = table{&nd.tables[0], len(nd.tables)}
		}
		id := lastID
		if t != last || id < 0 {
			k := nd.dispatch().Key()
			var ok bool
			if id, ok = ids[k]; !ok {
				id = int32(len(ids))
				ids[k] = id
			}
			last, lastID = t, id
		}
		s.key[i] = id
	}
}
