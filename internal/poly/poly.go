package poly

import (
	"fmt"
	"math/rand"

	"repro/internal/torus"
)

// Poly is a degree-(N-1) polynomial over the discretized torus.
// The zero value is unusable; create instances with New.
type Poly struct {
	Coeffs []torus.Torus32
}

// New returns the zero polynomial of degree n-1. n must be a power of two.
func New(n int) Poly {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: degree bound %d is not a power of two", n))
	}
	return Poly{Coeffs: make([]torus.Torus32, n)}
}

// N returns the number of coefficients.
func (p Poly) N() int { return len(p.Coeffs) }

// Copy returns a deep copy of p.
func (p Poly) Copy() Poly {
	q := Poly{Coeffs: make([]torus.Torus32, len(p.Coeffs))}
	copy(q.Coeffs, p.Coeffs)
	return q
}

// Clear sets all coefficients to zero.
func (p Poly) Clear() {
	for i := range p.Coeffs {
		p.Coeffs[i] = 0
	}
}

// Equal reports coefficient-wise equality.
func (p Poly) Equal(q Poly) bool {
	if len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if p.Coeffs[i] != q.Coeffs[i] {
			return false
		}
	}
	return true
}

// AddTo sets dst = dst + p.
func AddTo(dst, p Poly) {
	for i := range dst.Coeffs {
		dst.Coeffs[i] += p.Coeffs[i]
	}
}

// SubTo sets dst = dst - p.
func SubTo(dst, p Poly) {
	for i := range dst.Coeffs {
		dst.Coeffs[i] -= p.Coeffs[i]
	}
}

// Add returns p + q.
func Add(p, q Poly) Poly {
	r := p.Copy()
	AddTo(r, q)
	return r
}

// Sub returns p - q.
func Sub(p, q Poly) Poly {
	r := p.Copy()
	SubTo(r, q)
	return r
}

// Neg returns -p.
func Neg(p Poly) Poly {
	r := New(p.N())
	for i, c := range p.Coeffs {
		r.Coeffs[i] = -c
	}
	return r
}

// MulByMonomial returns p * X^k in the negacyclic ring (X^N = -1).
// k may be any integer; it is reduced modulo 2N. This is the rotation
// performed by the Rotator Unit during blind rotation.
func MulByMonomial(p Poly, k int) Poly {
	n := p.N()
	r := New(n)
	MulByMonomialTo(r, p, k)
	return r
}

// MulByMonomialTo sets dst = p * X^k. dst must not alias p.
func MulByMonomialTo(dst, p Poly, k int) {
	n := p.N()
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	neg := false
	if k >= n {
		k -= n
		neg = true
	}
	// coefficient i of p lands at position i+k; wrapping past N negates.
	for i := 0; i < n; i++ {
		j := i + k
		c := p.Coeffs[i]
		if j >= n {
			j -= n
			c = -c
		}
		if neg {
			c = -c
		}
		dst.Coeffs[j] = c
	}
}

// MulNaive returns the negacyclic product p*q where q has small signed
// integer coefficients (passed as int32). Quadratic; reference implementation
// used to validate the FFT path.
func MulNaive(p Poly, q []int32) Poly {
	n := p.N()
	if len(q) != n {
		panic("poly: MulNaive operand size mismatch")
	}
	r := New(n)
	for i := 0; i < n; i++ {
		qi := q[i]
		if qi == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			term := torus.Torus32(int32(p.Coeffs[j]) * qi)
			if k >= n {
				r.Coeffs[k-n] -= term
			} else {
				r.Coeffs[k] += term
			}
		}
	}
	return r
}

// Uniform fills p with uniformly random torus coefficients.
func Uniform(rng *rand.Rand, p Poly) {
	for i := range p.Coeffs {
		p.Coeffs[i] = torus.Uniform32(rng)
	}
}

// MaxDistance returns the largest coefficient-wise torus distance between
// p and q, a measure of accumulated noise.
func MaxDistance(p, q Poly) float64 {
	var m float64
	for i := range p.Coeffs {
		if d := torus.Distance(p.Coeffs[i], q.Coeffs[i]); d > m {
			m = d
		}
	}
	return m
}
