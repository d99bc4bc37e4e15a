package engine

import (
	"fmt"

	"repro/internal/tfhe"
)

// GateOp identifies a boolean gate the engine can batch.
type GateOp int

// The gate mnemonics, in truth-table order. All binary gates cost one
// PBS + KS; NOT is linear and free.
const (
	NAND GateOp = iota
	AND
	OR
	NOR
	XOR
	XNOR
	NOT // unary; the second operand is ignored
)

var gateNames = [...]string{"NAND", "AND", "OR", "NOR", "XOR", "XNOR", "NOT"}

// String returns the gate mnemonic.
func (op GateOp) String() string {
	if op < 0 || int(op) >= len(gateNames) {
		return fmt.Sprintf("GateOp(%d)", int(op))
	}
	return gateNames[op]
}

// ParseGate resolves a gate mnemonic (case-sensitive, e.g. "NAND").
func ParseGate(s string) (GateOp, error) {
	for i, n := range gateNames {
		if n == s {
			return GateOp(i), nil
		}
	}
	return 0, fmt.Errorf("engine: unknown gate %q", s)
}

// Repeat returns n copies of op: the per-item op list of a batch that
// applies one gate throughout.
func (op GateOp) Repeat(n int) []GateOp {
	ops := make([]GateOp, n)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

// Eval returns the plaintext truth value of the gate — the reference the
// engine's tests (and callers sanity-checking circuits) compare against.
func (op GateOp) Eval(a, b bool) bool {
	switch op {
	case NAND:
		return !(a && b)
	case AND:
		return a && b
	case OR:
		return a || b
	case NOR:
		return !(a || b)
	case XOR:
		return a != b
	case XNOR:
		return a == b
	case NOT:
		return !a
	default:
		panic(fmt.Sprintf("engine: unknown gate %d", int(op)))
	}
}

// Gate is one gate of a dependency-free circuit level: its inputs are
// indices into the shared input wire slice, never outputs of other gates
// in the same list — which is exactly what makes the whole list one batch
// the worker pool can execute in any order. B is ignored for NOT.
type Gate struct {
	Op   GateOp
	A, B int
}

// EvalCircuit evaluates a dependency-free gate list over the input wires,
// returning one output ciphertext per gate, in gate order. Feed outputs
// back in as the next call's inputs to evaluate a multi-level circuit
// level by level (each level is one parallel batch — the epoch execution
// of the accelerator's scheduler).
func (e *Engine) EvalCircuit(inputs []tfhe.LWECiphertext, gates []Gate) ([]tfhe.LWECiphertext, error) {
	checkDims("EvalCircuit", inputs, e.params.SmallN)
	for gi, g := range gates {
		if g.Op < 0 || int(g.Op) >= len(gateNames) {
			return nil, fmt.Errorf("engine: gate %d: unknown op %d", gi, int(g.Op))
		}
		if g.A < 0 || g.A >= len(inputs) {
			return nil, fmt.Errorf("engine: gate %d (%s): input A=%d out of range [0,%d)", gi, g.Op, g.A, len(inputs))
		}
		if g.Op != NOT && (g.B < 0 || g.B >= len(inputs)) {
			return nil, fmt.Errorf("engine: gate %d (%s): input B=%d out of range [0,%d)", gi, g.Op, g.B, len(inputs))
		}
	}
	ops := make([]GateOp, len(gates))
	a := make([]tfhe.LWECiphertext, len(gates))
	b := make([]tfhe.LWECiphertext, len(gates))
	for i, g := range gates {
		ops[i], a[i] = g.Op, inputs[g.A]
		if g.Op != NOT {
			b[i] = inputs[g.B]
		}
	}
	return e.gates(ops, a, b), nil
}
