package sched

import (
	"fmt"

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
	kindInput    nodeKind = iota // externally supplied ciphertext
	kindLin                      // linear combination: free, no PBS
	kindGate                     // binary boolean gate: one PBS + KS
	kindLUT                      // lookup table: one PBS + KS
	kindMultiLUT                 // one output of a multi-value LUT group
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

	// kindLUT (in, space shared with kindMultiLUT)
	in    Wire
	space int
	table []int

	// kindMultiLUT: a group of k contiguous sibling nodes sharing one
	// blind rotation. Every sibling holds the same tables slice (table
	// mvIdx is this node's output); the head sibling has mvIdx 0.
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

// LUT appends a lookup-table node: one PBS + keyswitch applying table
// (length space, entries in {0..space-1}) to the message on wire in.
func (b *Builder) LUT(in Wire, space int, table []int) Wire {
	if !b.checkRef("LUT", in) {
		return Wire(-1)
	}
	if !b.checkTable("LUT", space, table) {
		return Wire(-1)
	}
	return b.add(node{kind: kindLUT, in: in, space: space, table: append([]int(nil), table...)})
}

// MultiLUT appends a multi-value lookup group: k = len(tables) outputs of
// one shared blind rotation over the message on wire in, one wire per
// table in table order. All tables share the message space; packing
// requires space·k ≤ N of the executing parameter set (checked at run
// time, since the circuit is parameter-agnostic) and shrinks the noise
// margin to 1/(4·space·k) — see the tfhe multi-value documentation.
func (b *Builder) MultiLUT(in Wire, space int, tables [][]int) []Wire {
	if !b.checkRef("MultiLUT", in) {
		return nil
	}
	if len(tables) < 1 {
		b.fail("MultiLUT: no tables")
		return nil
	}
	copied := make([][]int, len(tables))
	for i, table := range tables {
		if !b.checkTable("MultiLUT", space, table) {
			return nil
		}
		copied[i] = append([]int(nil), table...)
	}
	ws := make([]Wire, len(copied))
	for i := range copied {
		ws[i] = b.add(node{kind: kindMultiLUT, in: in, space: space, tables: copied, mvIdx: i})
	}
	return ws
}

// MultiLUTFunc is MultiLUT with the tables materialized from fs over
// {0..space-1}.
func (b *Builder) MultiLUTFunc(in Wire, space int, fs ...func(int) int) []Wire {
	if space < 2 {
		b.fail("MultiLUTFunc: space %d < 2", space)
		return nil
	}
	tables := make([][]int, len(fs))
	for i, f := range fs {
		tables[i] = make([]int, space)
		for m := range tables[i] {
			tables[i][m] = f(m)
		}
	}
	return b.MultiLUT(in, space, tables)
}

// LUTFunc is LUT with the table materialized from f over {0..space-1}.
func (b *Builder) LUTFunc(in Wire, space int, f func(int) int) Wire {
	if space < 2 {
		return b.fail("LUTFunc: space %d < 2", space)
	}
	table := make([]int, space)
	for m := range table {
		table[m] = f(m)
	}
	return b.LUT(in, space, table)
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
