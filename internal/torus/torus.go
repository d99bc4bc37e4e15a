package torus

import (
	"math"
	"math/rand"
)

// Torus32 is an element of the discretized torus with 32 bits of precision.
// The represented real value is T/2^32 mod 1.
type Torus32 = uint32

// FromFloat converts a real number (any range; reduced mod 1) to Torus32.
func FromFloat(x float64) Torus32 {
	x -= math.Floor(x) // reduce to [0,1)
	// Round to the nearest multiple of 2^-32.
	return Torus32(uint64(math.Round(x * 4294967296.0)))
}

// ToSignedFloat converts a Torus32 to its centered representative in
// [-1/2, 1/2).
func ToSignedFloat(t Torus32) float64 {
	return float64(int32(t)) / 4294967296.0
}

// EncodeMessage encodes message m ∈ {0,...,space-1} onto the torus as
// m/space. space must be positive.
func EncodeMessage(m, space int) Torus32 {
	mm := ((m % space) + space) % space
	return Torus32((uint64(mm) << 32) / uint64(space))
}

// DecodeMessage decodes a torus element to the nearest message in
// {0,...,space-1}, inverting EncodeMessage under bounded noise.
func DecodeMessage(t Torus32, space int) int {
	// Multiply by space and round: m = round(t * space / 2^32) mod space.
	v := (uint64(t)*uint64(space) + (1 << 31)) >> 32
	return int(v) % space
}

// ModSwitch switches t from modulus 2^32 to modulus 2N, returning a value in
// [0, 2N). This is the first step of programmable bootstrapping
// (Algorithm 1, line 3). N must be a power of two.
func ModSwitch(t Torus32, twoN int) int {
	// round(t * 2N / 2^32)
	v := (uint64(t)*uint64(twoN) + (1 << 31)) >> 32
	return int(v) % twoN
}

// Gaussian32 draws a sample from a centered gaussian on the torus with
// standard deviation sigma (in torus units, i.e. fraction of 1) and adds it
// to mu. Sampling uses the supplied deterministic source so that tests and
// simulations are reproducible.
func Gaussian32(rng *rand.Rand, mu Torus32, sigma float64) Torus32 {
	e := rng.NormFloat64() * sigma
	return mu + int32ToTorus(e)
}

// int32ToTorus converts a small real offset (|e| < 1/2) to a signed torus
// increment.
func int32ToTorus(e float64) Torus32 {
	return Torus32(int32(math.Round(e * 4294967296.0)))
}

// Uniform32 draws a uniformly random torus element.
func Uniform32(rng *rand.Rand) Torus32 {
	return Torus32(rng.Uint32())
}

// Distance returns the torus distance |a-b| as a real in [0, 1/2].
func Distance(a, b Torus32) float64 {
	d := ToSignedFloat(a - b)
	return math.Abs(d)
}
