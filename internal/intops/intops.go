package intops

import (
	"fmt"
	"math/rand"

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
