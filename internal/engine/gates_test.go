package engine

import (
	"fmt"
	"math/rand"
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

// TestMixedOpBatchesMatchSequential is the per-item-op property: a batch
// whose items each carry their own op (NOT included) comes back bitwise
// equal to the sequential evaluator, at one rotate worker and at eight.
// Where the op is NOT, b[i] is a zero-value placeholder: a NOT lane has no
// second operand to validate or read. Runs under -race (make race): ops, a
// and b are read by every worker of the batch.
func TestMixedOpBatchesMatchSequential(t *testing.T) {
	_, ek, cts, _ := testSetup(t, 57, 16)
	serial := tfhe.NewEvaluator(ek)
	rng := rand.New(rand.NewSource(58))
	for _, workers := range []int{1, 8} {
		s := NewStreaming(ek, StreamConfig{RotateWorkers: workers})
		for trial := 0; trial < 6; trial++ {
			n := rng.Intn(10)
			ops := make([]GateOp, n)
			a := make([]tfhe.LWECiphertext, n)
			b := make([]tfhe.LWECiphertext, n)
			want := make([]tfhe.LWECiphertext, n)
			for i := range ops {
				ops[i] = GateOp(rng.Intn(len(gateNames)))
				a[i], b[i] = cts[rng.Intn(len(cts))], cts[rng.Intn(len(cts))]
				if ops[i] == NOT {
					b[i] = tfhe.LWECiphertext{}
				}
				want[i] = seqGate(serial, ops[i], a[i], b[i])
			}
			got, err := s.Gates(ops, a, b)
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, ops, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d: %d outputs for %d items", workers, len(got), n)
			}
			for i := range got {
				if !ctEqual(got[i], want[i]) {
					t.Fatalf("workers=%d %v: item %d (%s) differs bitwise from the sequential evaluator", workers, ops, i, ops[i])
				}
			}
		}
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
