package intops

import (
	"fmt"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/tfhe"
)

// Base is the digit radix (2 bits per digit).
const Base = 4

// opSpace is the PBS message space for digit arithmetic: big enough to
// hold a digit sum with carry (max 2·Base-1) with slack for noise.
const opSpace = 4 * Base

// Int is an encrypted unsigned integer in little-endian radix-Base digits.
type Int struct {
	Digits []tfhe.LWECiphertext
}

// NumDigits returns the digit count.
func (x Int) NumDigits() int { return len(x.Digits) }

// MaxValue returns Base^digits - 1, the largest representable value.
func MaxValue(digits int) int {
	v := 1
	for i := 0; i < digits; i++ {
		v *= Base
	}
	return v - 1
}

// Evaluator performs homomorphic integer arithmetic. Every operation is
// built as a sched circuit and executed on the configured backend: the
// sequential evaluator (New) runs the DAG node by node, the scheduled
// backend (NewScheduled) levelizes it and dispatches whole levels as
// engine batches. Both backends are bitwise identical; the optimizing
// backend (NewOptimized) rewrites circuits before scheduling and
// promises decode identity only.
type Evaluator struct {
	// Eval is the sequential backend's evaluator; nil when scheduled.
	Eval *tfhe.Evaluator

	runner *sched.Runner
	cfg    sched.Config
}

// New wraps a TFHE evaluator (the sequential backend).
func New(ev *tfhe.Evaluator) *Evaluator { return &Evaluator{Eval: ev} }

// NewScheduled builds an evaluator over the levelizing scheduler, with
// circuits compiled exactly as built.
func NewScheduled(r *sched.Runner) *Evaluator { return &Evaluator{runner: r} }

// NewOptimized builds a scheduled evaluator with the full optimizer
// pass pipeline, its multi-value packing budget bound to params so
// packed groups always satisfy space·k ≤ N. Results decode identically
// to the other backends' but are not bitwise identical: fusion and
// packing re-synthesize bootstraps.
func NewOptimized(r *sched.Runner, params tfhe.Params) *Evaluator {
	opt := sched.OptAll()
	opt.MultiValueBudget = params.N
	return &Evaluator{runner: r, cfg: sched.Config{Opt: opt}}
}

// exec runs a built circuit on the backend.
func (e *Evaluator) exec(c *sched.Circuit, ins []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	if e.runner != nil {
		return e.runner.Run(c, e.cfg, ins)
	}
	return sched.RunSequential(c, e.Eval, ins)
}

// binary builds a two-operand digit circuit (equal widths — the caller
// validates) and executes it.
func (e *Evaluator) binary(x, y Int, build func(b *sched.Builder, xw, yw []sched.Wire) []sched.Wire) ([]tfhe.LWECiphertext, error) {
	c, err := binaryCircuit(x.NumDigits(), build)
	if err != nil {
		return nil, err
	}
	ins := make([]tfhe.LWECiphertext, 0, x.NumDigits()+y.NumDigits())
	ins = append(ins, x.Digits...)
	ins = append(ins, y.Digits...)
	return e.exec(c, ins)
}

// unary builds a one-operand digit circuit and executes it, returning
// the outputs as an Int.
func (e *Evaluator) unary(x Int, build func(b *sched.Builder, xw []sched.Wire) []sched.Wire) (Int, error) {
	b := sched.NewBuilder()
	xw := b.Inputs(x.NumDigits())
	b.Output(build(b, xw)...)
	c, err := b.Build()
	if err != nil {
		return Int{}, err
	}
	digits, err := e.exec(c, x.Digits)
	if err != nil {
		return Int{}, err
	}
	return Int{Digits: digits}, nil
}

// Encrypt encrypts v as a digits-long integer under the secret keys.
func Encrypt(rng *rand.Rand, sk tfhe.SecretKeys, v, digits int) (Int, error) {
	if v < 0 || v > MaxValue(digits) {
		return Int{}, fmt.Errorf("intops: value %d out of range for %d digits", v, digits)
	}
	out := Int{Digits: make([]tfhe.LWECiphertext, digits)}
	for i := 0; i < digits; i++ {
		d := v % Base
		v /= Base
		out.Digits[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(d, opSpace), sk.Params.LWEStdDev)
	}
	return out, nil
}

// Decrypt recovers the plaintext integer.
func Decrypt(sk tfhe.SecretKeys, x Int) int {
	v := 0
	for i := x.NumDigits() - 1; i >= 0; i-- {
		v = v*Base + tfhe.DecodePBSMessage(sk.LWE.Phase(x.Digits[i]), opSpace)
	}
	return v
}

// Add returns x + y mod Base^digits. Each digit costs two bootstraps: one
// to extract the carry, one to reduce the digit (the last digit skips the
// carry).
func (e *Evaluator) Add(x, y Int) (Int, error) {
	if x.NumDigits() != y.NumDigits() {
		return Int{}, fmt.Errorf("intops: digit count mismatch %d vs %d", x.NumDigits(), y.NumDigits())
	}
	digits, err := e.binary(x, y, func(b *sched.Builder, xw, yw []sched.Wire) []sched.Wire {
		return BuildAdd(b, xw, yw)
	})
	if err != nil {
		return Int{}, err
	}
	return Int{Digits: digits}, nil
}

// AddScalar returns x + c mod Base^digits for a plaintext scalar.
func (e *Evaluator) AddScalar(x Int, c int) (Int, error) {
	n := x.NumDigits()
	if c < 0 {
		c = c%(MaxValue(n)+1) + MaxValue(n) + 1
	}
	return e.unary(x, func(b *sched.Builder, xw []sched.Wire) []sched.Wire {
		return BuildAddScalar(b, xw, c)
	})
}

// MulScalar returns x·c mod Base^digits via double-and-add (c >= 0).
func (e *Evaluator) MulScalar(x Int, c int) (Int, error) {
	if c < 0 {
		return Int{}, fmt.Errorf("intops: negative scalar %d", c)
	}
	return e.unary(x, func(b *sched.Builder, xw []sched.Wire) []sched.Wire {
		return BuildMulScalar(b, xw, c)
	})
}

// Mul returns the full encrypted product x·y mod Base^digits: packed
// digit-pair partial products (all independent — the widest level any
// intops circuit produces) reduced through a balanced adder tree.
func (e *Evaluator) Mul(x, y Int) (Int, error) {
	if x.NumDigits() != y.NumDigits() {
		return Int{}, fmt.Errorf("intops: digit count mismatch %d vs %d", x.NumDigits(), y.NumDigits())
	}
	digits, err := e.binary(x, y, func(b *sched.Builder, xw, yw []sched.Wire) []sched.Wire {
		return BuildMul(b, xw, yw)
	})
	if err != nil {
		return Int{}, err
	}
	return Int{Digits: digits}, nil
}

// IsEqual returns an encryption of 1 if x == y, else 0 (in opSpace
// encoding). Cost: one PBS per digit plus one final PBS.
func (e *Evaluator) IsEqual(x, y Int) (tfhe.LWECiphertext, error) {
	if x.NumDigits() != y.NumDigits() {
		return tfhe.LWECiphertext{}, fmt.Errorf("intops: digit count mismatch %d vs %d", x.NumDigits(), y.NumDigits())
	}
	if x.NumDigits() == 0 {
		return tfhe.LWECiphertext{}, fmt.Errorf("intops: cannot compare zero-digit integers")
	}
	if x.NumDigits() >= opSpace {
		return tfhe.LWECiphertext{}, fmt.Errorf("intops: too many digits (%d) for equality reduction", x.NumDigits())
	}
	outs, err := e.binary(x, y, func(b *sched.Builder, xw, yw []sched.Wire) []sched.Wire {
		return []sched.Wire{BuildIsEqual(b, xw, yw)}
	})
	if err != nil {
		return tfhe.LWECiphertext{}, err
	}
	return outs[0], nil
}

// LessThan returns an encryption of 1 if x < y, else 0 (in opSpace
// encoding). Cost: two PBS per digit (parallel trits + a combine chain).
func (e *Evaluator) LessThan(x, y Int) (tfhe.LWECiphertext, error) {
	if x.NumDigits() != y.NumDigits() {
		return tfhe.LWECiphertext{}, fmt.Errorf("intops: digit count mismatch %d vs %d", x.NumDigits(), y.NumDigits())
	}
	if x.NumDigits() == 0 {
		return tfhe.LWECiphertext{}, fmt.Errorf("intops: cannot compare zero-digit integers")
	}
	outs, err := e.binary(x, y, func(b *sched.Builder, xw, yw []sched.Wire) []sched.Wire {
		return []sched.Wire{BuildLessThan(b, xw, yw)}
	})
	if err != nil {
		return tfhe.LWECiphertext{}, err
	}
	return outs[0], nil
}

// DecryptBit decrypts a 0/1 indicator produced by IsEqual or LessThan.
func DecryptBit(sk tfhe.SecretKeys, ct tfhe.LWECiphertext) int {
	return tfhe.DecodePBSMessage(sk.LWE.Phase(ct), opSpace)
}
