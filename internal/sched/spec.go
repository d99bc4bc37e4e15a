package sched

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/torus"
)

// The NodeSpec kind strings.
const (
	SpecInput    = "in"
	SpecLin      = "lin"
	SpecGate     = "gate"
	SpecLUT      = "lut"
	SpecMultiLUT = "mlut"
)

// NodeSpec is the serializable form of one circuit node: what the gate
// service's circuit-batch endpoint accepts on the wire. Wire references
// are node indices and must point at earlier nodes, which makes cycles
// unrepresentable; FromSpecs re-validates everything, so specs can come
// from untrusted peers.
type NodeSpec struct {
	Kind string `json:"kind"`

	// SpecLin
	K     uint32 `json:"k,omitempty"` // torus constant, raw bits
	Terms []Term `json:"terms,omitempty"`

	// SpecGate
	Op string `json:"op,omitempty"` // gate mnemonic, e.g. "NAND"
	A  int    `json:"a,omitempty"`
	B  int    `json:"b,omitempty"`

	// SpecLUT (In, Space shared with SpecMultiLUT)
	In    int   `json:"in,omitempty"`
	Space int   `json:"space,omitempty"`
	Table []int `json:"table,omitempty"`

	// SpecMultiLUT: one node per group output. Every sibling repeats the
	// group's full table list and carries its output index, so a spec
	// stream can be validated without trusting cross-node invariants.
	Tables [][]int `json:"tables,omitempty"`
	Index  int     `json:"index,omitempty"`
}

// Specs serializes the circuit's nodes. Together with OutputWires it
// round-trips through FromSpecs. A one-table lookup group is an "lut"
// spec, a group of two or more tables one "mlut" spec per output.
func (c *Circuit) Specs() []NodeSpec {
	specs := make([]NodeSpec, len(c.nodes))
	for i, n := range c.nodes {
		switch n.kind {
		case kindInput:
			specs[i] = NodeSpec{Kind: SpecInput}
		case kindLin:
			specs[i] = NodeSpec{Kind: SpecLin, K: uint32(n.k), Terms: n.terms}
		case kindGate:
			specs[i] = NodeSpec{Kind: SpecGate, Op: n.op.String(), A: int(n.a), B: int(n.b)}
		case kindLUT:
			if len(n.tables) == 1 {
				specs[i] = NodeSpec{Kind: SpecLUT, In: int(n.in), Space: n.space, Table: n.tables[0]}
			} else {
				specs[i] = NodeSpec{Kind: SpecMultiLUT, In: int(n.in), Space: n.space, Tables: n.tables, Index: n.mvIdx}
			}
		}
	}
	return specs
}

// OutputWires returns the output wire indices, in declaration order.
func (c *Circuit) OutputWires() []int {
	outs := make([]int, len(c.outputs))
	for i, w := range c.outputs {
		outs[i] = int(w)
	}
	return outs
}

// tablesEqual reports whether two table lists are identical in count,
// order, and every entry.
func tablesEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// FromSpecs rebuilds a circuit from serialized nodes and output indices,
// validating every reference, op, and table through the Builder. A
// multi-value group must arrive as k contiguous "mlut" specs with
// indices 0..k-1 that agree on input, space, and the full table list —
// the builder appends the whole group at the head spec and the sibling
// specs are checked against it, so a malformed stream cannot desynchronize
// spec indices from wires.
func FromSpecs(specs []NodeSpec, outputs []int) (*Circuit, error) {
	b := NewBuilder()
	// Open multi-value group: siblings expected before any other node.
	var mvHead *NodeSpec
	var mvLeft int
	for i := range specs {
		s := specs[i]
		if mvLeft > 0 {
			if s.Kind != SpecMultiLUT || s.Index != len(mvHead.Tables)-mvLeft ||
				s.In != mvHead.In || s.Space != mvHead.Space || !tablesEqual(s.Tables, mvHead.Tables) {
				return nil, fmt.Errorf("sched: node %d: expected sibling %d of the multi-value group at node %d", i, len(mvHead.Tables)-mvLeft, i-(len(mvHead.Tables)-mvLeft))
			}
			mvLeft--
			continue
		}
		switch s.Kind {
		case SpecInput:
			b.Input()
		case SpecLin:
			b.Lin(torus.Torus32(s.K), s.Terms...)
		case SpecGate:
			op, err := engine.ParseGate(s.Op)
			if err != nil {
				return nil, fmt.Errorf("sched: node %d: %w", i, err)
			}
			b.Gate(op, Wire(s.A), Wire(s.B))
		case SpecLUT:
			b.LUT(Wire(s.In), s.Space, s.Table)
		case SpecMultiLUT:
			if s.Index != 0 {
				return nil, fmt.Errorf("sched: node %d: multi-value sibling %d without a group head", i, s.Index)
			}
			b.MultiLUT(Wire(s.In), s.Space, s.Tables)
			mvHead, mvLeft = &specs[i], len(s.Tables)-1
		default:
			return nil, fmt.Errorf("sched: node %d has unknown kind %q", i, s.Kind)
		}
	}
	if mvLeft > 0 {
		return nil, fmt.Errorf("sched: truncated multi-value group: %d sibling specs missing", mvLeft)
	}
	for _, o := range outputs {
		b.Output(Wire(o))
	}
	return b.Build()
}
