package tfhe

import (
	"math/rand"

	"repro/internal/poly"
	"repro/internal/torus"
)

// SecretKeys bundles the client-side secrets: the small LWE key (dimension
// n) under which messages are encrypted, and the GLWE key used during
// bootstrapping (whose extracted LWE key has dimension k·N).
type SecretKeys struct {
	Params Params
	LWE    LWEKey  // dimension n
	GLWE   GLWEKey // k polynomials of degree N-1
	BigLWE LWEKey  // extracted key, dimension k·N
}

// EvaluationKeys bundles the public material the server (or accelerator)
// needs: the bootstrapping key (n Fourier-domain GGSW slabs) and the
// keyswitching key (k·N·lk LWE ciphertexts), exactly the "parameters" of
// §II-D.
type EvaluationKeys struct {
	Params Params
	BSK    []GGSWFourier // length n; BSK[i] encrypts LWE key bit s_i
	// KSK is the keyswitching key as one slab in the order KeySwitchTile
	// reads it, which is also the wire order: row (j, l), at word offset
	// (j·lk + l)·(n+1), encrypts s'_j·Q/base^(l+1) as n mask words, then
	// the body.
	KSK []torus.Torus32
}

// KSKWords returns the length in words of the keyswitching key: k·N × lk
// rows of n+1.
func (p Params) KSKWords() int { return p.ExtractedN() * p.KSLevel * (p.SmallN + 1) }

// GenerateKeys samples a full key set for params using the deterministic
// source rng.
func GenerateKeys(rng *rand.Rand, params Params) (SecretKeys, EvaluationKeys) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	sk := SecretKeys{Params: params}
	sk.LWE = NewLWEKey(rng, params.SmallN)
	sk.GLWE = NewGLWEKey(rng, params.K, params.N)
	sk.BigLWE = sk.GLWE.ExtractLWEKey()

	ek := EvaluationKeys{Params: params}
	ek.BSK = make([]GGSWFourier, params.SmallN)
	for i := range ek.BSK {
		ek.BSK[i] = EncryptGGSW(rng, sk.GLWE, sk.LWE.Bits[i], params)
	}

	ksGadget := poly.NewDecomposer(params.KSBaseLog, params.KSLevel)
	n := params.SmallN
	ek.KSK = make([]torus.Torus32, params.KSKWords())
	row := ek.KSK
	for j := 0; j < params.ExtractedN(); j++ {
		for l := 0; l < params.KSLevel; l++ {
			shift := uint(32 - ksGadget.BaseLog*(l+1))
			mu := torus.Torus32(sk.BigLWE.Bits[j]) << shift
			row[n] = sk.LWE.encryptInto(rng, row[:n], mu, params.LWEStdDev)
			row = row[n+1:]
		}
	}
	return sk, ek
}

// BSKBytes returns the size in bytes of the Fourier-domain bootstrapping
// key as streamed to the accelerator (n GGSW slabs of 16-byte complex
// values). Used by the memory-traffic models.
func (ek EvaluationKeys) BSKBytes() int64 {
	return int64(ek.Params.SmallN) * int64(ek.Params.GGSWValues()) * 16
}
