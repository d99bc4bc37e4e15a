package tfhe

import (
	"math/rand"

	"repro/internal/torus"
)

// LWECiphertext is the (n+1)-element vector [a_1..a_n, b] of §II-D, the
// primary message-carrying ciphertext of TFHE.
type LWECiphertext struct {
	A []torus.Torus32 // mask, length n
	B torus.Torus32   // body
}

// NewLWECiphertext returns a zero ciphertext of mask length n (a valid
// encryption of 0 under any key, with zero noise).
func NewLWECiphertext(n int) LWECiphertext {
	return LWECiphertext{A: make([]torus.Torus32, n)}
}

// N returns the mask length.
func (c LWECiphertext) N() int { return len(c.A) }

// Copy returns a deep copy.
func (c LWECiphertext) Copy() LWECiphertext {
	out := LWECiphertext{A: make([]torus.Torus32, len(c.A)), B: c.B}
	copy(out.A, c.A)
	return out
}

// EqualLWE reports whether two ciphertexts are bitwise identical — the
// relation the engines', scheduler's, and gate service's determinism
// contracts are stated in (server-side TFHE is deterministic, so every
// execution backend must reproduce the sequential evaluator exactly).
func EqualLWE(a, b LWECiphertext) bool {
	if a.N() != b.N() || a.B != b.B {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

// AddTo sets c += d (homomorphic addition).
func (c *LWECiphertext) AddTo(d LWECiphertext) {
	for i := range c.A {
		c.A[i] += d.A[i]
	}
	c.B += d.B
}

// SubTo sets c -= d.
func (c *LWECiphertext) SubTo(d LWECiphertext) {
	for i := range c.A {
		c.A[i] -= d.A[i]
	}
	c.B -= d.B
}

// AddPlain adds a plaintext torus constant to the encrypted message.
func (c *LWECiphertext) AddPlain(mu torus.Torus32) { c.B += mu }

// Negate sets c = -c (negating the encrypted message).
func (c *LWECiphertext) Negate() {
	for i := range c.A {
		c.A[i] = -c.A[i]
	}
	c.B = -c.B
}

// MulScalar multiplies the ciphertext (and hence the message) by a small
// signed integer.
func (c *LWECiphertext) MulScalar(s int32) {
	for i := range c.A {
		c.A[i] = torus.Torus32(int32(c.A[i]) * s)
	}
	c.B = torus.Torus32(int32(c.B) * s)
}

// LWEKey is a binary LWE secret key.
type LWEKey struct {
	Bits []int32 // each 0 or 1, length n
}

// NewLWEKey samples a uniform binary key of length n.
func NewLWEKey(rng *rand.Rand, n int) LWEKey {
	k := LWEKey{Bits: make([]int32, n)}
	for i := range k.Bits {
		k.Bits[i] = int32(rng.Intn(2))
	}
	return k
}

// N returns the key length.
func (k LWEKey) N() int { return len(k.Bits) }

// Encrypt encrypts the torus message mu with gaussian noise stddev sigma.
func (k LWEKey) Encrypt(rng *rand.Rand, mu torus.Torus32, sigma float64) LWECiphertext {
	c := NewLWECiphertext(k.N())
	c.B = k.encryptInto(rng, c.A, mu, sigma)
	return c
}

// encryptInto is Encrypt into caller storage: it fills the mask a (length
// n) and returns the body. GenerateKeys uses it to write keyswitching-key
// rows straight into their slab.
func (k LWEKey) encryptInto(rng *rand.Rand, a []torus.Torus32, mu torus.Torus32, sigma float64) torus.Torus32 {
	var dot torus.Torus32
	for i := range a {
		a[i] = torus.Uniform32(rng)
		if k.Bits[i] == 1 {
			dot += a[i]
		}
	}
	return dot + torus.Gaussian32(rng, mu, sigma)
}

// Phase returns b - <a,s>, the noisy message.
func (k LWEKey) Phase(c LWECiphertext) torus.Torus32 {
	var dot torus.Torus32
	for i, a := range c.A {
		if k.Bits[i] == 1 {
			dot += a
		}
	}
	return c.B - dot
}
