// Package strix is the public API of the Strix reproduction: a functional
// TFHE library with programmable bootstrapping (the computation the
// accelerator executes) and a cycle-level model of the Strix accelerator
// itself (MICRO 2023). The experiment harness that regenerates every table
// and figure of the paper's evaluation is cmd/strixbench.
//
// The two halves compose: the FHE context runs real encrypted computation
// bit-for-bit (validating the algorithms), while the accelerator model
// predicts how fast Strix executes the same workload.
//
//	ctx, _ := strix.NewFHEContext("test", 42)
//	a, b := ctx.EncryptBool(true), ctx.EncryptBool(false)
//	fmt.Println(ctx.DecryptBool(ctx.Eval.NAND(a, b))) // true
//
//	acc, _ := strix.NewAccelerator("I")
//	fmt.Println(acc.ThroughputPBS()) // ~74,696 PBS/s
//
// Batched execution — the accelerator's raison d'être — has a software
// counterpart: the context's engine streams independent gates (one PBS +
// KS each) through workers with an evaluator each, every worker running a
// tile of ciphertexts that share each pass over the keys, so measured PBS/s can be
// compared directly with the model's prediction:
//
//	xs := ctx.EncryptBools([]bool{true, false, true, true})
//	ys := ctx.EncryptBools([]bool{true, true, false, true})
//	outs, _ := ctx.BatchGate(strix.NAND, xs, ys) // all four in parallel
//	fmt.Println(ctx.DecryptBools(outs))          // [false true true false]
//
// The engine's worker count defaults to runtime.GOMAXPROCS(0); NewEngine
// builds an engine of an explicit count.
//
// The networked service, the routing tier and the circuit scheduler are
// not re-exported here: the binaries under cmd/ use repro/internal/server,
// router, sched and engine directly.
package strix

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/tfhe"
)

// FHEContext bundles a key set with an evaluator for end-to-end encrypted
// computation. It is deterministic for a given seed.
type FHEContext struct {
	Params tfhe.Params
	SK     tfhe.SecretKeys
	EK     tfhe.EvaluationKeys
	Eval   *tfhe.Evaluator
	rng    *rand.Rand
	eng    *engine.StreamingEngine // the default engine: GOMAXPROCS wide
}

// NewFHEContext generates keys for the named parameter set ("I".."IV" or
// "test") and returns a ready-to-use context. Set "test" keeps key
// generation and bootstrapping fast; the standard sets are substantially
// slower but fully functional.
func NewFHEContext(set string, seed int64) (*FHEContext, error) {
	p, err := tfhe.ParamsByName(set)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sk, ek := tfhe.GenerateKeys(rng, p)
	return &FHEContext{
		Params: p,
		SK:     sk,
		EK:     ek,
		Eval:   tfhe.NewEvaluator(ek),
		rng:    rng,
		eng:    engine.NewStreaming(ek, engine.StreamConfig{}),
	}, nil
}

// EncryptBool encrypts a boolean (±1/8 gate encoding).
func (c *FHEContext) EncryptBool(b bool) tfhe.LWECiphertext {
	return c.SK.EncryptBool(c.rng, b)
}

// DecryptBool decrypts a gate-encoded boolean of dimension n.
func (c *FHEContext) DecryptBool(ct tfhe.LWECiphertext) bool {
	return c.SK.DecryptBool(ct)
}

// EncryptInt encrypts m ∈ {0..space-1} with the PBS padding-bit encoding.
func (c *FHEContext) EncryptInt(m, space int) tfhe.LWECiphertext {
	return c.SK.LWE.Encrypt(c.rng, tfhe.EncodePBSMessage(m, space), c.Params.LWEStdDev)
}

// DecryptInt decrypts a PBS-encoded integer of dimension n.
func (c *FHEContext) DecryptInt(ct tfhe.LWECiphertext, space int) int {
	return tfhe.DecodePBSMessage(c.SK.LWE.Phase(ct), space)
}

// GateOp identifies a boolean gate for the batch APIs.
type GateOp = engine.GateOp

// Gate mnemonics, re-exported so callers outside the module never touch
// the internal engine package.
const (
	NAND = engine.NAND
	AND  = engine.AND
	OR   = engine.OR
	NOR  = engine.NOR
	XOR  = engine.XOR
	XNOR = engine.XNOR
	NOT  = engine.NOT
)

// NewEngine returns a fresh streaming engine over this context's keys with
// the given worker count (0 = runtime.GOMAXPROCS(0)).
func (c *FHEContext) NewEngine(workers int) *engine.StreamingEngine {
	return engine.NewStreaming(c.EK, engine.StreamConfig{RotateWorkers: workers})
}

// EncryptBools encrypts a slice of booleans (±1/8 gate encoding).
func (c *FHEContext) EncryptBools(bs []bool) []tfhe.LWECiphertext {
	cts := make([]tfhe.LWECiphertext, len(bs))
	for i, b := range bs {
		cts[i] = c.EncryptBool(b)
	}
	return cts
}

// DecryptBools decrypts a slice of gate-encoded booleans.
func (c *FHEContext) DecryptBools(cts []tfhe.LWECiphertext) []bool {
	bs := make([]bool, len(cts))
	for i, ct := range cts {
		bs[i] = c.DecryptBool(ct)
	}
	return bs
}

// BatchGate applies one gate pairwise over two ciphertext slices on the
// default engine: out[i] = op(a[i], b[i]), all items in parallel.
func (c *FHEContext) BatchGate(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return c.eng.Gates(op.Repeat(len(a)), a, b)
}

// Accelerator wraps the Strix performance model and epoch scheduler.
type Accelerator struct {
	Model arch.Model
}

// NewAccelerator builds the default 8-HSC Strix for a parameter set.
func NewAccelerator(set string) (*Accelerator, error) {
	return NewAcceleratorWithConfig(arch.DefaultConfig(), set)
}

// NewAcceleratorWithConfig builds a Strix with a custom configuration.
func NewAcceleratorWithConfig(cfg arch.Config, set string) (*Accelerator, error) {
	p, err := tfhe.ParamsByName(set)
	if err != nil {
		return nil, err
	}
	m, err := arch.NewModel(cfg, p)
	if err != nil {
		return nil, err
	}
	return &Accelerator{Model: m}, nil
}

// ThroughputPBS returns sustained PBS/s.
func (a *Accelerator) ThroughputPBS() float64 { return a.Model.ThroughputPBS() }

// LatencyMs returns single-PBS latency in milliseconds.
func (a *Accelerator) LatencyMs() float64 { return a.Model.LatencySeconds() * 1e3 }

// RunPBS schedules count independent PBS+KS operations.
func (a *Accelerator) RunPBS(count int) (arch.WorkloadResult, error) {
	return a.Model.RunPBS(count)
}

// RunLayers schedules dependent layers (e.g. a neural network).
func (a *Accelerator) RunLayers(layers []int) (arch.WorkloadResult, error) {
	return a.Model.RunLayers(layers)
}
