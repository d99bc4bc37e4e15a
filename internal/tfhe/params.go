package tfhe

import "fmt"

// Params collects the TFHE parameters of Table II/IV plus the gadget and
// noise parameters the paper inherits from the Concrete/NuFHE libraries.
type Params struct {
	Name string // e.g. "I", "II", "III", "IV"

	// Table IV parameters.
	N        int // polynomial degree (power of two)
	K        int // GLWE mask length k
	SmallN   int // LWE mask length n
	PBSLevel int // decomposition level of bootstrapping, lb
	Security int // λ in bits (documentation only)

	// Gadget parameters not printed in Table IV (library defaults).
	PBSBaseLog int // log2 of the PBS decomposition base Bg
	KSLevel    int // keyswitching decomposition level, lk
	KSBaseLog  int // log2 of the keyswitching base

	// Noise parameters (standard deviations as torus fractions).
	LWEStdDev  float64 // fresh LWE noise (keyswitching key noise)
	GLWEStdDev float64 // fresh GLWE noise (bootstrapping key noise)
}

// NoiseFloor is the least fresh-noise standard deviation a key may be
// sampled with, in units of 2⁻³² of the torus: the σ ≈ 3.2 of the
// Homomorphic Encryption Security Standard (Albrecht et al., 2018).
// torus.Gaussian32 rounds σ·2³²·z to an integer, so below about one unit
// most draws round to zero and the key is a noiseless encryption.
const NoiseFloor = 3.2

// Validate checks structural parameter constraints and that both key
// noises reach NoiseFloor.
func (p Params) Validate() error {
	switch {
	case p.N < 4 || p.N&(p.N-1) != 0:
		return fmt.Errorf("tfhe: N=%d must be a power of two >= 4", p.N)
	case p.K < 1:
		return fmt.Errorf("tfhe: k=%d must be >= 1", p.K)
	case p.SmallN < 1:
		return fmt.Errorf("tfhe: n=%d must be >= 1", p.SmallN)
	// level·baseLog ≤ 32, spelled so that no product of two decoded 32-bit
	// fields can wrap past the check.
	case p.PBSLevel < 1 || p.PBSBaseLog < 1 || p.PBSLevel > 32/p.PBSBaseLog:
		return fmt.Errorf("tfhe: invalid PBS gadget (lb=%d, Bg=2^%d)", p.PBSLevel, p.PBSBaseLog)
	case p.KSLevel < 1 || p.KSBaseLog < 1 || p.KSLevel > 32/p.KSBaseLog:
		return fmt.Errorf("tfhe: invalid KS gadget (lk=%d, base=2^%d)", p.KSLevel, p.KSBaseLog)
	case p.LWEStdDev*(1<<32) < NoiseFloor || p.GLWEStdDev*(1<<32) < NoiseFloor:
		return fmt.Errorf("tfhe: noise stddev (LWE %.3g, GLWE %.3g) below the floor of %g/2^32", p.LWEStdDev, p.GLWEStdDev, NoiseFloor)
	}
	return nil
}

// ExtractedN returns k·N, the LWE dimension after sample extraction.
func (p Params) ExtractedN() int { return p.K * p.N }

// GGSWValues returns the length in complex values of one Fourier-domain
// GGSW ciphertext (GGSWFourier): (k+1)·lb rows of k+1 polynomials of N/2.
func (p Params) GGSWValues() int { return (p.K + 1) * p.PBSLevel * (p.K + 1) * (p.N / 2) }

// ParamsI is parameter set I of Table IV — the 110-bit baseline used by all
// prior accelerators (Concrete/NuFHE defaults).
var ParamsI = Params{
	Name: "I", N: 1024, K: 1, SmallN: 500, PBSLevel: 2, Security: 110,
	PBSBaseLog: 10, KSLevel: 8, KSBaseLog: 2,
	LWEStdDev: 3.05e-5, GLWEStdDev: 7.18e-9,
}

// ParamsII is parameter set II (128-bit, used by XHEC). The keyswitching
// gadget (lk=3), which Table IV does not print, follows the newer
// Concrete defaults.
var ParamsII = Params{
	Name: "II", N: 1024, K: 1, SmallN: 630, PBSLevel: 3, Security: 128,
	PBSBaseLog: 7, KSLevel: 3, KSBaseLog: 5,
	LWEStdDev: 1.5e-5, GLWEStdDev: 7.18e-9,
}

// ParamsIII is parameter set III (128-bit, used by YKP). Its GLWE noise
// is NoiseFloor (7.45·10⁻¹⁰).
var ParamsIII = Params{
	Name: "III", N: 2048, K: 1, SmallN: 592, PBSLevel: 3, Security: 128,
	PBSBaseLog: 8, KSLevel: 3, KSBaseLog: 5,
	LWEStdDev: 1.5e-5, GLWEStdDev: NoiseFloor / (1 << 32),
}

// ParamsIV is parameter set IV — the new high-precision set the paper
// introduces for Strix (largest polynomial degree). Its GLWE noise is
// NoiseFloor (7.45·10⁻¹⁰).
var ParamsIV = Params{
	Name: "IV", N: 16384, K: 1, SmallN: 991, PBSLevel: 2, Security: 128,
	PBSBaseLog: 10, KSLevel: 2, KSBaseLog: 8,
	LWEStdDev: 1.0e-7, GLWEStdDev: NoiseFloor / (1 << 32),
}

// ParamsTest is a deliberately small, low-noise parameter set for fast unit
// tests. It is NOT secure; it exists so the full PBS/KS pipeline can be
// exercised thousands of times in CI.
var ParamsTest = Params{
	Name: "test", N: 256, K: 1, SmallN: 64, PBSLevel: 3, Security: 0,
	PBSBaseLog: 8, KSLevel: 6, KSBaseLog: 3,
	LWEStdDev: 4.0e-8, GLWEStdDev: 1.0e-9,
}

// StandardSets returns the four Table IV parameter sets in order.
func StandardSets() []Params {
	return []Params{ParamsI, ParamsII, ParamsIII, ParamsIV}
}

// ParamsByName resolves "I".."IV" (or "test").
func ParamsByName(name string) (Params, error) {
	for _, p := range append(StandardSets(), ParamsTest) {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("tfhe: unknown parameter set %q", name)
}
