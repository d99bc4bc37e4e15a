package intops

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/sched"
	"repro/internal/tfhe"
)

// Radix is the digit shape of the integer circuits: digits in
// {0..Base()-1}, every digit lookup over message space Space(). For is
// its one source; the zero Radix is not usable.
type Radix struct{ base int }

// Base returns the digit base.
func (r Radix) Base() int { return r.base }

// Space returns every digit lookup's message space: the smallest power of
// two above Base²-1, the largest pair x + Base·y; a digit sum is ≤ 5·Base-7.
func (r Radix) Space() int { return 1 << bits.Len(uint(r.base*r.base-1)) }

// For returns the radix of parameter set p: the largest base ≤ 4 whose
// 3-digit multiply, which holds every digit lookup at its worst load,
// passes the one noise rule (noise.Check); else the rule's refusal.
func For(p tfhe.Params) (r Radix, err error) {
	for r.base = 4; r.base >= 2; r.base-- {
		if err = r.check(3, p); err == nil {
			return r, nil
		}
	}
	return Radix{}, err
}

// check applies the one noise rule under p to r's n-digit multiply.
func (r Radix) check(n int, p tfhe.Params) error {
	c, err := r.MulCircuit(n)
	if err != nil {
		return err
	}
	s, err := sched.Compile(c, sched.Config{})
	if err != nil {
		return err
	}
	return s.Check(p)
}

// Int is an encrypted unsigned integer in little-endian digits.
type Int struct {
	Digits []tfhe.LWECiphertext
}

// NumDigits returns the digit count.
func (x Int) NumDigits() int { return len(x.Digits) }

// MaxValue returns Base^digits - 1, the largest representable value.
func (r Radix) MaxValue(digits int) int {
	v := 1
	for i := 0; i < digits; i++ {
		v *= r.base
	}
	return v - 1
}

// Encrypt encrypts v as a digits-long integer under the secret keys.
func (r Radix) Encrypt(rng *rand.Rand, sk tfhe.SecretKeys, v, digits int) (Int, error) {
	if v < 0 || v > r.MaxValue(digits) {
		return Int{}, fmt.Errorf("intops: value %d out of range for %d radix-%d digits", v, digits, r.base)
	}
	out := Int{Digits: make([]tfhe.LWECiphertext, digits)}
	for i := 0; i < digits; i++ {
		d := v % r.base
		v /= r.base
		out.Digits[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(d, r.Space()), sk.Params.LWEStdDev)
	}
	return out, nil
}

// Decrypt recovers the plaintext integer.
func (r Radix) Decrypt(sk tfhe.SecretKeys, x Int) int {
	v, space := 0, r.Space()
	for i := x.NumDigits() - 1; i >= 0; i-- {
		v = v*r.base + tfhe.DecodePBSMessage(sk.LWE.Phase(x.Digits[i]), space)
	}
	return v
}
