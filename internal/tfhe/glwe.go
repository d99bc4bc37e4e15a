package tfhe

import (
	"fmt"
	"math/rand"

	"repro/internal/fft"

	"repro/internal/poly"
	"repro/internal/torus"
)

// GLWECiphertext is the vector of (k+1) polynomials [A_1..A_k, B] of §II-D.
// In PBS it carries the test vector being blind-rotated.
type GLWECiphertext struct {
	Polys []poly.Poly // length k+1; Polys[k] is the body B
}

// NewGLWECiphertext returns a zero GLWE ciphertext (a valid zero-noise
// encryption of the zero polynomial under any key).
func NewGLWECiphertext(k, n int) GLWECiphertext {
	ps := make([]poly.Poly, k+1)
	for i := range ps {
		ps[i] = poly.New(n)
	}
	return GLWECiphertext{Polys: ps}
}

// K returns the mask length k.
func (c GLWECiphertext) K() int { return len(c.Polys) - 1 }

// PolyN returns the polynomial size N.
func (c GLWECiphertext) PolyN() int { return c.Polys[0].N() }

// Body returns the body polynomial B.
func (c GLWECiphertext) Body() poly.Poly { return c.Polys[c.K()] }

// RotateTo sets dst = c * X^e (component-wise negacyclic rotation) — the
// Rotator Unit operation. dst must not alias c.
func (c GLWECiphertext) RotateTo(dst GLWECiphertext, e int) {
	for i := range c.Polys {
		poly.MulByMonomialTo(dst.Polys[i], c.Polys[i], e)
	}
}

// GLWEKey is a binary GLWE secret key of k polynomials.
type GLWEKey struct {
	Polys [][]int32 // k polynomials with 0/1 coefficients
	n     int
}

// NewGLWEKey samples a uniform binary GLWE key.
func NewGLWEKey(rng *rand.Rand, k, n int) GLWEKey {
	key := GLWEKey{Polys: make([][]int32, k), n: n}
	for i := range key.Polys {
		key.Polys[i] = make([]int32, n)
		for j := range key.Polys[i] {
			key.Polys[i][j] = int32(rng.Intn(2))
		}
	}
	return key
}

// K returns the mask length.
func (k GLWEKey) K() int { return len(k.Polys) }

// Encrypt encrypts the message polynomial mu with noise stddev sigma.
// The a·s products use the exact FFT fast path (binary keys keep product
// magnitudes within double precision).
func (k GLWEKey) Encrypt(rng *rand.Rand, mu poly.Poly, sigma float64) GLWECiphertext {
	proc := fft.SharedProcessor(k.n)
	c := NewGLWECiphertext(k.K(), k.n)
	acc := proc.GetBuffer()
	fa := proc.GetBuffer()
	fs := proc.GetBuffer()
	for i := 0; i < k.K(); i++ {
		poly.Uniform(rng, c.Polys[i])
		proc.ForwardTorusTo(fa, c.Polys[i])
		proc.ForwardIntTo(fs, k.Polys[i])
		fft.MulAcc(acc, fa, fs)
	}
	proc.InverseTo(c.Body(), acc)
	proc.PutBuffer(acc)
	proc.PutBuffer(fa)
	proc.PutBuffer(fs)
	for j := 0; j < k.n; j++ {
		c.Body().Coeffs[j] += torus.Gaussian32(rng, mu.Coeffs[j], sigma)
	}
	return c
}

// EncryptZero returns a fresh encryption of the zero polynomial.
func (k GLWEKey) EncryptZero(rng *rand.Rand, sigma float64) GLWECiphertext {
	return k.Encrypt(rng, poly.New(k.n), sigma)
}

// Phase returns B - sum_i A_i * S_i, the noisy message polynomial.
func (k GLWEKey) Phase(c GLWECiphertext) poly.Poly {
	phase := c.Body().Copy()
	for i := 0; i < k.K(); i++ {
		poly.SubTo(phase, poly.MulNaive(c.Polys[i], k.Polys[i]))
	}
	return phase
}

// ExtractLWEKey returns the LWE key of dimension k·N under which
// sample-extracted coefficients decrypt: s'_{i·N+j} = S_i[j].
func (k GLWEKey) ExtractLWEKey() LWEKey {
	bits := make([]int32, k.K()*k.n)
	for i := 0; i < k.K(); i++ {
		copy(bits[i*k.n:(i+1)*k.n], k.Polys[i])
	}
	return LWEKey{Bits: bits}
}

// SampleExtract extracts coefficient 0 of the message as an LWE ciphertext
// of dimension k·N under ExtractLWEKey — Algorithm 1 line 13.
func SampleExtract(c GLWECiphertext) LWECiphertext {
	return SampleExtractAt(c, 0)
}

// SampleExtractAt extracts coefficient t of the message as an LWE
// ciphertext of dimension k·N under ExtractLWEKey. Coefficient t of
// A_i·S_i is Σ_{j≤t} A_i[t−j]·S_i[j] − Σ_{j>t} A_i[N+t−j]·S_i[j]
// (negacyclic wraparound), which fixes the mask layout below. t = 0 is
// the classic SampleExtract; multi-value PBS reads one output per packed
// subslot at the offsets of Params.MultiLUTOffsets.
func SampleExtractAt(c GLWECiphertext, t int) LWECiphertext {
	k, n := c.K(), c.PolyN()
	if t < 0 || t >= n {
		panic(fmt.Sprintf("tfhe: SampleExtractAt offset %d outside [0,%d)", t, n))
	}
	out := NewLWECiphertext(k * n)
	for i := 0; i < k; i++ {
		a := c.Polys[i]
		for j := 0; j <= t; j++ {
			out.A[i*n+j] = a.Coeffs[t-j]
		}
		for j := t + 1; j < n; j++ {
			out.A[i*n+j] = -a.Coeffs[n+t-j]
		}
	}
	out.B = c.Body().Coeffs[t]
	return out
}
