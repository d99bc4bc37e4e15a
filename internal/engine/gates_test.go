package engine

import (
	"fmt"
	"testing"

	"repro/internal/tfhe"
)

// seqGate is the reference every gate test compares against: the
// sequential evaluator's own gate method, one call per item.
func seqGate(ev *tfhe.Evaluator, op GateOp, a, b tfhe.LWECiphertext) tfhe.LWECiphertext {
	switch op {
	case NAND:
		return ev.NAND(a, b)
	case AND:
		return ev.AND(a, b)
	case OR:
		return ev.OR(a, b)
	case NOR:
		return ev.NOR(a, b)
	case XOR:
		return ev.XOR(a, b)
	case XNOR:
		return ev.XNOR(a, b)
	case NOT:
		return ev.NOT(a)
	default:
		panic(fmt.Sprintf("seqGate: unknown gate %d", int(op)))
	}
}

// TestGatesRejectsBadOperands covers what only the per-item entry points
// can get wrong: an op list of the wrong length, and a binary op with no
// second operand list.
func TestGatesRejectsBadOperands(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 59, 4)
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 1})
	if _, err := s.Gates([]GateOp{AND}, cts[:2], cts[2:]); err == nil {
		t.Error("1 op for 2 items accepted")
	}
	if _, err := s.Gates([]GateOp{NOT, AND}, cts[:2], nil); err == nil {
		t.Error("AND with no second operand list accepted")
	}
	if _, err := s.Gates([]GateOp{NOT, GateOp(99)}, cts[:2], cts[2:]); err == nil {
		t.Error("unknown op accepted")
	}
	if out, err := s.Gates([]GateOp{NOT, NOT}, cts[:2], nil); err != nil || len(out) != 2 {
		t.Errorf("all-NOT batch without b: %d outputs, err %v", len(out), err)
	}
}
