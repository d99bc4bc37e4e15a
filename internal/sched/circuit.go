package sched

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/torus"
)

// GateOp re-exports the engine's gate identifier: circuits name gates the
// same way the batch APIs do.
type GateOp = engine.GateOp

// Wire identifies a node of a circuit: the value it produces is the input
// of every node that references it. Wires are assigned densely in build
// order, so a Wire is also the node's index.
type Wire int

// Term is one summand of a linear-combination node: coefficient C times
// the value on wire W. Coefficients are small signed integers (wrapping
// torus scalar multiplication, exactly LWECiphertext.MulScalar).
type Term struct {
	W Wire  `json:"w"`
	C int32 `json:"c"`
}

// nodeKind discriminates the circuit node variants.
type nodeKind uint8

const (
	kindInput nodeKind = iota // externally supplied ciphertext
	kindLin                   // linear combination: free, no PBS
	kindGate                  // binary boolean gate: one PBS + KS
	kindLUT                   // one output of a lookup group: one PBS + KS per table
)

// node is one vertex of the DAG. Exactly the fields of its kind are set.
type node struct {
	kind nodeKind

	// kindLin
	terms []Term
	k     torus.Torus32

	// kindGate (binary only; NOT is lowered to a linear node)
	op   engine.GateOp
	a, b Wire

	// kindLUT: a group of k = len(tables) ≥ 1 contiguous sibling nodes
	// sharing one blind rotation over the message on wire in. Every
	// sibling holds the same tables slice (table mvIdx is this node's
	// output); the head sibling has mvIdx 0. A one-table group is the
	// plain lookup.
	in     Wire
	space  int
	tables [][]int
	mvIdx  int
}

// Circuit is an immutable gate/LUT dataflow graph produced by a Builder
// (or FromSpecs). Nodes are stored in topological (build) order.
type Circuit struct {
	nodes   []node
	inputs  []Wire // input node ids, in declaration order
	outputs []Wire
}

// NumInputs returns how many input ciphertexts the circuit consumes.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns how many outputs the circuit declares.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// Builder accumulates a circuit node by node. Every method returns the
// wire of the node it appended; invalid references or parameters record
// the first error, which Build reports. A Builder must not be reused
// after Build.
type Builder struct {
	c   Circuit
	err error
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return &Builder{} }

// fail records the first build error and returns an invalid wire.
func (b *Builder) fail(format string, args ...any) Wire {
	if b.err == nil {
		b.err = fmt.Errorf("sched: "+format, args...)
	}
	return Wire(-1)
}

// checkRef validates that w names an already-built node (which also makes
// cycles unrepresentable: nodes only reference earlier nodes).
func (b *Builder) checkRef(ctx string, w Wire) bool {
	if w < 0 || int(w) >= len(b.c.nodes) {
		b.fail("%s: wire %d out of range [0,%d)", ctx, int(w), len(b.c.nodes))
		return false
	}
	return true
}

// add appends one node, returning its wire.
func (b *Builder) add(n node) Wire {
	b.c.nodes = append(b.c.nodes, n)
	return Wire(len(b.c.nodes) - 1)
}

// Input declares the next externally-supplied input ciphertext.
func (b *Builder) Input() Wire {
	w := b.add(node{kind: kindInput})
	b.c.inputs = append(b.c.inputs, w)
	return w
}

// Inputs declares n consecutive input ciphertexts.
func (b *Builder) Inputs(n int) []Wire {
	ws := make([]Wire, n)
	for i := range ws {
		ws[i] = b.Input()
	}
	return ws
}

// Lin appends a free linear-combination node: k + Σ term.C · term.W,
// computed with wrapping torus arithmetic. With no terms it is an
// encrypted constant (a noiseless encryption of k), which requires the
// circuit to have at least one input to fix the LWE dimension.
func (b *Builder) Lin(k torus.Torus32, terms ...Term) Wire {
	for _, t := range terms {
		if !b.checkRef("Lin", t.W) {
			return Wire(-1)
		}
	}
	return b.add(node{kind: kindLin, k: k, terms: append([]Term(nil), terms...)})
}

// Gate appends one boolean gate node (one PBS + keyswitch). The unary NOT
// is free and is lowered to a linear node; its second operand is ignored.
func (b *Builder) Gate(op engine.GateOp, a, bw Wire) Wire {
	if op < engine.NAND || op > engine.NOT {
		return b.fail("Gate: unknown op %d", int(op))
	}
	if !b.checkRef("Gate", a) {
		return Wire(-1)
	}
	if op == engine.NOT {
		// NOT is -a on the torus, bitwise what tfhe.Evaluator.NOT computes.
		return b.add(node{kind: kindLin, terms: []Term{{W: a, C: -1}}})
	}
	if !b.checkRef("Gate", bw) {
		return Wire(-1)
	}
	return b.add(node{kind: kindGate, op: op, a: a, b: bw})
}

// checkTable validates one lookup table of length space with entries in
// {0..space-1}, recording the first violation.
func (b *Builder) checkTable(ctx string, space int, table []int) bool {
	if space < 2 {
		b.fail("%s: space %d < 2", ctx, space)
		return false
	}
	if len(table) != space {
		b.fail("%s: table has %d entries, want %d", ctx, len(table), space)
		return false
	}
	for i, v := range table {
		if v < 0 || v >= space {
			b.fail("%s: entry %d = %d outside {0..%d}", ctx, i, v, space-1)
			return false
		}
	}
	return true
}

// LUT appends a lookup group: k = len(tables) ≥ 1 outputs of one shared
// blind rotation over the message on wire in, one wire per table in table
// order. Every table has length space and entries in {0..space-1}; one
// table is the plain lookup. Packing requires space·k ≤ N of the
// executing parameter set (checked at run time, since the circuit is
// parameter-agnostic) and shrinks the noise margin to 1/(4·space·k) — see
// the tfhe lookup documentation.
func (b *Builder) LUT(in Wire, space int, tables ...[]int) []Wire {
	return b.LUTs([]Wire{in}, space, tables...)
}

// LUTs appends one lookup group per wire of ins, in order, all over one
// copy of tables, and returns their wires input-major: k per input. The
// tables are checked and copied once, however many groups share them. A
// failed step returns k invalid wires per input, so its outputs index as
// a built group's do.
func (b *Builder) LUTs(ins []Wire, space int, tables ...[]int) []Wire {
	invalid := func() []Wire { return slices.Repeat([]Wire{-1}, len(ins)*max(len(tables), 1)) }
	for _, in := range ins {
		if !b.checkRef("LUT", in) {
			return invalid()
		}
	}
	if len(tables) < 1 {
		b.fail("LUT: no tables")
		return invalid()
	}
	copied := make([][]int, len(tables))
	for i, table := range tables {
		if !b.checkTable("LUT", space, table) {
			return invalid()
		}
		copied[i] = slices.Clone(table)
	}
	ws := make([]Wire, 0, len(ins)*len(copied))
	for _, in := range ins {
		for i := range copied {
			ws = append(ws, b.add(node{kind: kindLUT, in: in, space: space, tables: copied, mvIdx: i}))
		}
	}
	return ws
}

// LUTFunc is LUT with the tables materialized from fs over {0..space-1}.
func (b *Builder) LUTFunc(in Wire, space int, fs ...func(int) int) []Wire {
	if space < 2 {
		b.fail("LUT: space %d < 2", space)
		return slices.Repeat([]Wire{-1}, max(len(fs), 1))
	}
	tables := make([][]int, len(fs))
	for i, f := range fs {
		tables[i] = make([]int, space)
		for m := range tables[i] {
			tables[i][m] = f(m)
		}
	}
	return b.LUT(in, space, tables...)
}

// Output marks wires as circuit outputs, in order. It may be called
// multiple times — outputs accumulate.
func (b *Builder) Output(ws ...Wire) {
	for _, w := range ws {
		if !b.checkRef("Output", w) {
			return
		}
		b.c.outputs = append(b.c.outputs, w)
	}
}

// Build finalizes the circuit, reporting the first construction error.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &b.c, nil
}
