package tfhe

import (
	"math/rand"

	"repro/internal/torus"
)

// Gate bootstrapping: booleans are encoded as ±1/8 on the torus (the
// classic TFHE convention). Every binary gate costs one linear combination,
// one PBS with a constant "sign" test vector, and one keyswitch — exactly
// the workload profiled in Fig 1 of the paper.

// boolMu is the torus encoding magnitude for booleans: 1/8.
func boolMu(b bool) torus.Torus32 {
	mu := torus.FromFloat(0.125)
	if b {
		return mu
	}
	return -mu
}

// EncryptBool encrypts a boolean under the small LWE key.
func (sk SecretKeys) EncryptBool(rng *rand.Rand, b bool) LWECiphertext {
	return sk.LWE.Encrypt(rng, boolMu(b), sk.Params.LWEStdDev)
}

// DecryptBool decrypts a boolean ciphertext of dimension n.
func (sk SecretKeys) DecryptBool(c LWECiphertext) bool {
	return int32(sk.LWE.Phase(c)) > 0
}

// SignTestVector returns the constant test vector whose blind rotation
// computes the sign of the phase: +1/8 for phase in [0,1/2), -1/8 otherwise.
// It is read-only during PBS, so one copy can be shared across a whole
// stream of gate bootstraps.
func (e *Evaluator) SignTestVector() GLWECiphertext {
	tv := NewGLWECiphertext(e.Params.K, e.Params.N)
	mu := torus.FromFloat(0.125)
	body := tv.Body()
	for j := range body.Coeffs {
		body.Coeffs[j] = mu
	}
	return tv
}

// signBootstrapBig bootstraps c against the sign test vector, returning a
// big-key ciphertext of ±1/8.
func (e *Evaluator) signBootstrapBig(c LWECiphertext) LWECiphertext {
	return e.Bootstrap(c, e.SignTestVector())
}

// signBootstrap is signBootstrapBig followed by keyswitching to dimension n.
func (e *Evaluator) signBootstrap(c LWECiphertext) LWECiphertext {
	return e.KeySwitch(e.signBootstrapBig(c))
}

// NANDInput returns the linear combination NAND feeds its sign bootstrap:
// 1/8 − a − b. The *Input methods expose every gate's pre-PBS linear stage
// so the streaming engine can run it in its prepare phase and share one
// sign test vector across the stream; gate(a,b) ≡ signBootstrap(gateInput).
func (e *Evaluator) NANDInput(a, b LWECiphertext) LWECiphertext {
	t := NewLWECiphertext(e.Params.SmallN)
	t.B = torus.FromFloat(0.125)
	t.SubTo(a)
	t.SubTo(b)
	e.Counters.LinearOps += 2
	return t
}

// NAND returns an encryption of !(a && b).
func (e *Evaluator) NAND(a, b LWECiphertext) LWECiphertext {
	return e.signBootstrap(e.NANDInput(a, b))
}

// ANDInput returns the linear combination AND feeds its sign bootstrap:
// a + b − 1/8.
func (e *Evaluator) ANDInput(a, b LWECiphertext) LWECiphertext {
	t := a.Copy()
	t.AddTo(b)
	t.AddPlain(-torus.FromFloat(0.125))
	e.Counters.LinearOps += 2
	return t
}

// AND returns an encryption of a && b.
func (e *Evaluator) AND(a, b LWECiphertext) LWECiphertext {
	return e.signBootstrap(e.ANDInput(a, b))
}

// ORInput returns the linear combination OR feeds its sign bootstrap:
// a + b + 1/8.
func (e *Evaluator) ORInput(a, b LWECiphertext) LWECiphertext {
	t := a.Copy()
	t.AddTo(b)
	t.AddPlain(torus.FromFloat(0.125))
	e.Counters.LinearOps += 2
	return t
}

// OR returns an encryption of a || b.
func (e *Evaluator) OR(a, b LWECiphertext) LWECiphertext {
	return e.signBootstrap(e.ORInput(a, b))
}

// NORInput returns the linear combination NOR feeds its sign bootstrap:
// −1/8 − a − b.
func (e *Evaluator) NORInput(a, b LWECiphertext) LWECiphertext {
	t := NewLWECiphertext(e.Params.SmallN)
	t.B = -torus.FromFloat(0.125)
	t.SubTo(a)
	t.SubTo(b)
	e.Counters.LinearOps += 2
	return t
}

// NOR returns an encryption of !(a || b).
func (e *Evaluator) NOR(a, b LWECiphertext) LWECiphertext {
	return e.signBootstrap(e.NORInput(a, b))
}

// XORInput returns the linear combination XOR feeds its sign bootstrap:
// 2·(a + b) + 1/4.
func (e *Evaluator) XORInput(a, b LWECiphertext) LWECiphertext {
	t := a.Copy()
	t.AddTo(b)
	t.MulScalar(2)
	t.AddPlain(torus.FromFloat(0.25))
	e.Counters.LinearOps += 3
	return t
}

// XOR returns an encryption of a != b. The 2× scaling amplifies input noise;
// inputs should be freshly bootstrapped.
func (e *Evaluator) XOR(a, b LWECiphertext) LWECiphertext {
	return e.signBootstrap(e.XORInput(a, b))
}

// XNORInput returns the linear combination XNOR feeds its sign bootstrap:
// 2·(a + b) − 1/4.
func (e *Evaluator) XNORInput(a, b LWECiphertext) LWECiphertext {
	t := a.Copy()
	t.AddTo(b)
	t.MulScalar(2)
	t.AddPlain(-torus.FromFloat(0.25))
	e.Counters.LinearOps += 3
	return t
}

// XNOR returns an encryption of a == b.
func (e *Evaluator) XNOR(a, b LWECiphertext) LWECiphertext {
	return e.signBootstrap(e.XNORInput(a, b))
}

// NOT returns an encryption of !a. Negation is free (no bootstrap).
func (e *Evaluator) NOT(a LWECiphertext) LWECiphertext {
	t := a.Copy()
	t.Negate()
	e.Counters.LinearOps++
	return t
}

// MUX returns an encryption of (c ? a : b) using two bootstraps and one
// keyswitch, following the tfhe-lib construction.
func (e *Evaluator) MUX(c, a, b LWECiphertext) LWECiphertext {
	// u1 = sign(-1/8 + c + a): equals a when c is true, else -1/8.
	t1 := c.Copy()
	t1.AddTo(a)
	t1.AddPlain(-torus.FromFloat(0.125))
	u1 := e.signBootstrapBig(t1)

	// u2 = sign(-1/8 - c + b): equals b when c is false, else -1/8.
	t2 := c.Copy()
	t2.Negate()
	t2.AddTo(b)
	t2.AddPlain(-torus.FromFloat(0.125))
	u2 := e.signBootstrapBig(t2)

	u1.AddTo(u2)
	u1.AddPlain(torus.FromFloat(0.125))
	e.Counters.LinearOps += 7
	return e.KeySwitch(u1)
}
