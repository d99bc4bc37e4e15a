package sched

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// Config tunes compilation.
type Config struct {
	// Opt selects optimizer passes to run on the circuit before
	// levelization (see OptConfig and OptAll). The zero value compiles
	// the circuit exactly as built, bitwise-faithful to RunSequential.
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

// Dispatch is one engine call of a level: every PBS node of the level
// that shares a test vector, batched together. That is every binary gate
// (the sign test vector; Ops[j], node j's op, only selects its free linear
// pre-stage), or every node with this exact lookup table or multi-value
// table list. Nodes lists the node wires in build order. For
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
	LinearNodes int // free nodes folded in between levels

	// Multi-value packing: LUT outputs served by shared rotations and
	// the rotations those shares saved versus one PBS per output.
	MultiValueOuts int
	RotationsSaved int

	// OptPasses records what each optimizer pass removed (nil when no
	// passes ran). The per-pass PBSRemoved entries sum to the total
	// rotation reduction versus compiling the same circuit unoptimized.
	OptPasses []PassStat
}

// Schedule is a compiled circuit: levelized dispatches plus the free
// linear nodes to fold in at each level boundary.
type Schedule struct {
	levels []Level
	// linAt[l] holds the linear nodes whose operands are complete after
	// PBS level l (linAt[0] depends on inputs only), in build order.
	linAt [][]Wire
	stats Stats
	// nodes is the node count of the source circuit handed to Compile,
	// so Execute can reject a schedule paired with a different circuit.
	nodes int
	// circ is the circuit the levels reference — the optimizer's
	// rewrite when passes ran, the source circuit itself otherwise.
	// Execute resolves wires against it.
	circ *Circuit
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

// Key is the dispatch's grouping key: the scheduler merges a level's
// nodes into one dispatch, and the gate service coalesces requests into
// one engine call, exactly when their keys are equal. Every gate dispatch
// has the key "g" (they share the sign test vector); a LUT or multi-value
// key spells the kind, the space and every table entry, so only identical
// tables (count and order too) share a test vector.
func (d Dispatch) Key() string {
	var b strings.Builder
	switch d.Kind {
	case DispatchGate:
		return "g"
	case DispatchLUT:
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

// Compile optionally optimizes the circuit (cfg.Opt), then levelizes it
// and groups each level into batched dispatches. Each PBS node's level
// is its longest-path PBS depth from the inputs (linear nodes are free
// and add no depth) — the maximal independent sets the paper's scheduler
// dispatches as epochs. Within a level, nodes group by the test vector an
// engine call shares across its batch: all binary gates join one dispatch
// (the sign test vector), LUTs group by exact table. The schedule carries
// the optimized circuit: Execute is still called with the source circuit,
// whose inputs and output order the rewrite preserves.
func Compile(c *Circuit, cfg Config) (*Schedule, error) {
	exec, passes := c, []PassStat(nil)
	if cfg.Opt.enabled() {
		var err error
		exec, passes, err = Optimize(c, cfg.Opt)
		if err != nil {
			return nil, err
		}
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
		linAt:  make([][]Wire, maxLvl+1),
		nodes:  len(c.nodes),
		circ:   exec,
	}
	s.stats.OptPasses = passes
	// groupIdx[l] maps a dispatch key to its index in levels[l].Dispatches,
	// so grouping preserves first-appearance (build) order.
	groupIdx := make([]map[string]int, maxLvl)
	// join appends the node wires to the level-l dispatch with proto's
	// key, creating it from proto on first appearance, and charges the
	// level one blind rotation. It returns the dispatch.
	join := func(l int, proto Dispatch, ws ...Wire) *Dispatch {
		if groupIdx[l] == nil {
			groupIdx[l] = make(map[string]int)
		}
		key := proto.Key()
		di, ok := groupIdx[l][key]
		if !ok {
			di = len(s.levels[l].Dispatches)
			groupIdx[l][key] = di
			s.levels[l].Dispatches = append(s.levels[l].Dispatches, proto)
		}
		d := &s.levels[l].Dispatches[di]
		d.Nodes = append(d.Nodes, ws...)
		s.levels[l].PBS++
		return d
	}
	for i, n := range exec.nodes {
		switch n.kind {
		case kindLin:
			s.linAt[lvl[i]] = append(s.linAt[lvl[i]], Wire(i))
		case kindGate:
			d := join(lvl[i]-1, Dispatch{Kind: DispatchGate}, Wire(i))
			d.Ops = append(d.Ops, n.op)
		case kindLUT:
			join(lvl[i]-1, Dispatch{Kind: DispatchLUT, Space: n.space, Table: n.table}, Wire(i))
		case kindMultiLUT:
			// The head sibling carries the whole group; the group's k
			// contiguous wires share one rotation.
			if n.mvIdx != 0 {
				continue
			}
			k := len(n.tables)
			ws := make([]Wire, k)
			for j := range ws {
				ws[j] = Wire(i + j)
			}
			join(lvl[i]-1, Dispatch{Kind: DispatchMultiLUT, Space: n.space, Tables: n.tables}, ws...)
			s.stats.MultiValueOuts += k
			s.stats.RotationsSaved += k - 1
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
	for _, lin := range s.linAt {
		s.stats.LinearNodes += len(lin)
	}
	return s, nil
}
