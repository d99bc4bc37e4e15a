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

// gateInput runs the pre-bootstrap linear stage of gate i of a batch, the
// only part of a gate its op selects. NOT is fully linear: it completes
// here, bypasses the PBS and never reads b.
func gateInput(ev *tfhe.Evaluator, op GateOp, a, b []tfhe.LWECiphertext, i int) (tfhe.LWECiphertext, bool) {
	switch op {
	case NAND:
		return ev.NANDInput(a[i], b[i]), false
	case AND:
		return ev.ANDInput(a[i], b[i]), false
	case OR:
		return ev.ORInput(a[i], b[i]), false
	case NOR:
		return ev.NORInput(a[i], b[i]), false
	case XOR:
		return ev.XORInput(a[i], b[i]), false
	case XNOR:
		return ev.XNORInput(a[i], b[i]), false
	case NOT:
		return ev.NOT(a[i]), true
	default:
		panic(fmt.Sprintf("engine: unknown gate %d", int(op)))
	}
}
