package tfhe

import (
	"fmt"
	"math/rand"

	"repro/internal/torus"
)

// Bootstrapping key unrolling (BKU) — the technique Matcha [18] uses to
// reduce blind-rotation iterations at the cost of a larger key (§VII of
// the Strix paper; originally Bourse et al. [51]). Two LWE key bits are
// folded into one iteration using the identity
//
//	X^(a1·s1 + a2·s2) = 1 + s1(1−s2)(X^a1 − 1)
//	                      + (1−s1)s2(X^a2 − 1)
//	                      + s1·s2(X^(a1+a2) − 1),
//
// so each unrolled iteration performs three external products with GGSW
// encryptions of the bit products s1(1−s2), (1−s1)s2 and s1·s2. The key
// grows 1.5× (3 GGSWs per 2 bits) and the per-iteration compute grows
// 1.5×, but the *serial* iteration count halves — the latency/area trade
// the ablation experiment quantifies.

// UnrolledBSK is a factor-2 unrolled bootstrapping key.
type UnrolledBSK struct {
	Params Params
	Pairs  [][3]GGSWFourier // ceil(n/2) entries; entry i covers bits 2i, 2i+1
	Tail   *GGSWFourier     // standard GGSW for the last bit when n is odd
}

// GenerateUnrolledBSK builds the unrolled key for the secret keys.
func GenerateUnrolledBSK(rng *rand.Rand, sk SecretKeys) UnrolledBSK {
	p := sk.Params
	n := p.SmallN
	out := UnrolledBSK{Params: p, Pairs: make([][3]GGSWFourier, n/2)}
	for i := 0; i < n/2; i++ {
		s1 := sk.LWE.Bits[2*i]
		s2 := sk.LWE.Bits[2*i+1]
		out.Pairs[i] = [3]GGSWFourier{
			EncryptGGSW(rng, sk.GLWE, s1*(1-s2), p),
			EncryptGGSW(rng, sk.GLWE, (1-s1)*s2, p),
			EncryptGGSW(rng, sk.GLWE, s1*s2, p),
		}
	}
	if n%2 == 1 {
		g := EncryptGGSW(rng, sk.GLWE, sk.LWE.Bits[n-1], p)
		out.Tail = &g
	}
	return out
}

// Iterations returns the serial blind-rotation iteration count with this
// key: ceil(n/2).
func (u UnrolledBSK) Iterations() int {
	it := len(u.Pairs)
	if u.Tail != nil {
		it++
	}
	return it
}

// Bytes returns the Fourier-domain key size (1.5× the standard key).
func (u UnrolledBSK) Bytes() int64 {
	perGGSW := int64(u.Params.GGSWValues()) * 16
	total := int64(len(u.Pairs)) * 3 * perGGSW
	if u.Tail != nil {
		total += perGGSW
	}
	return total
}

// BlindRotateUnrolled is BlindRotate using the unrolled key: half the
// serial iterations, three external products each.
func (e *Evaluator) BlindRotateUnrolled(c LWECiphertext, testVec GLWECiphertext, u UnrolledBSK) GLWECiphertext {
	p := e.Params
	if c.N() != p.SmallN {
		panic(fmt.Sprintf("tfhe: BlindRotateUnrolled expects n=%d, got %d", p.SmallN, c.N()))
	}
	twoN := 2 * p.N
	bBar := torus.ModSwitch(c.B, twoN)
	e.Counters.ModSwitches += int64(c.N() + 1)

	acc := NewGLWECiphertext(p.K, p.N)
	testVec.RotateTo(acc, -bBar)
	e.Counters.Rotations++

	base := acc.Copy() // scratch for the pre-iteration accumulator
	e.ensureRotateScratch(1)

	for i := 0; i < len(u.Pairs); i++ {
		a1 := torus.ModSwitch(c.A[2*i], twoN)
		a2 := torus.ModSwitch(c.A[2*i+1], twoN)
		if a1 == 0 && a2 == 0 {
			continue
		}
		// Snapshot acc: all three products read the pre-update value.
		for j := range base.Polys {
			copy(base.Polys[j].Coeffs, acc.Polys[j].Coeffs)
		}
		for term, e2 := range [3]int{a1, a2, (a1 + a2) % twoN} {
			if e2 == 0 {
				continue // X^0 − 1 = 0: the term contributes nothing
			}
			ExternalProductRotSubAcc(acc, base, e2, u.Pairs[i][term], e.gadget, e.proc, e.epBuf, &e.Counters)
		}
	}
	if u.Tail != nil {
		if aBar := torus.ModSwitch(c.A[p.SmallN-1], twoN); aBar != 0 {
			ExternalProductRotSubAcc(acc, acc, aBar, *u.Tail, e.gadget, e.proc, e.epBuf, &e.Counters)
		}
	}
	return acc
}

// BootstrapUnrolled is the unrolled PBS: BlindRotateUnrolled followed by
// sample extraction.
func (e *Evaluator) BootstrapUnrolled(c LWECiphertext, testVec GLWECiphertext, u UnrolledBSK) LWECiphertext {
	acc := e.BlindRotateUnrolled(c, testVec, u)
	out := SampleExtract(acc)
	e.Counters.SampleExtracts++
	e.Counters.PBSCount++
	return out
}

// UnrolledGGSWCount returns how many GGSW ciphertexts the unrolled key
// holds per iteration (3) versus the standard key (1) — used by the
// architecture ablation.
const UnrolledGGSWCount = 3
