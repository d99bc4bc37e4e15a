// Package strix is the public API of the Strix reproduction: a functional
// TFHE library with programmable bootstrapping (the computation the
// accelerator executes) and a cycle-level model of the Strix accelerator
// itself (MICRO 2023), together with the experiment harness that
// regenerates every table and figure of the paper's evaluation.
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
// counterpart: the context's engine fans independent gates (one PBS + KS
// each) out over a pool of per-goroutine evaluators, so measured PBS/s can
// be compared directly with the model's prediction:
//
//	xs := ctx.EncryptBools([]bool{true, false, true, true})
//	ys := ctx.EncryptBools([]bool{true, true, false, true})
//	outs, _ := ctx.BatchGate(strix.NAND, xs, ys) // all four in parallel
//	fmt.Println(ctx.DecryptBools(outs))          // [false true true false]
//
// Worker count defaults to runtime.NumCPU(); use NewEngine for control
// over pool size and chunking, and Engine().Counters() for the aggregate
// operation mix.
//
// Whole computations — not just hand-built batches — reach the engines
// through the circuit scheduler: build a DAG of gates, lookup tables, and
// free linear combinations with NewCircuitBuilder, then Compile levelizes
// it into maximal independent batches and RunCircuit dispatches each
// level to the batch or streaming engine by a cost model:
//
//	b := strix.NewCircuitBuilder()
//	x, y := b.Input(), b.Input()
//	b.Output(b.Gate(strix.XOR, x, y))
//	circ, _ := b.Build()
//	outs, _ := ctx.RunCircuit(circ, []tfhe.LWECiphertext{a, c})
package strix

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// FHEContext bundles a key set with an evaluator for end-to-end encrypted
// computation. It is deterministic for a given seed.
type FHEContext struct {
	Params tfhe.Params
	SK     tfhe.SecretKeys
	EK     tfhe.EvaluationKeys
	Eval   *tfhe.Evaluator
	rng    *rand.Rand

	engOnce sync.Once
	eng     *engine.Engine

	streamOnce sync.Once
	streamEng  *engine.StreamingEngine
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

// DecryptIntBig decrypts a PBS-encoded integer of dimension k·N (a PBS
// output before keyswitching).
func (c *FHEContext) DecryptIntBig(ct tfhe.LWECiphertext, space int) int {
	return tfhe.DecodePBSMessage(c.SK.BigLWE.Phase(ct), space)
}

// GateOp identifies a boolean gate for the batch APIs.
type GateOp = engine.GateOp

// Gate is one gate of a dependency-free circuit level (see EvalCircuit).
type Gate = engine.Gate

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

// Engine returns the context's default batch engine (one worker per CPU),
// building it on first use. The engine shares the context's evaluation
// keys; see NewEngine for a custom pool size.
func (c *FHEContext) Engine() *engine.Engine {
	c.engOnce.Do(func() { c.eng = engine.New(c.EK, engine.Config{}) })
	return c.eng
}

// NewEngine returns a fresh batch engine over this context's keys with the
// given worker count (0 = runtime.NumCPU()).
func (c *FHEContext) NewEngine(workers int) *engine.Engine {
	return engine.New(c.EK, engine.Config{Workers: workers})
}

// StreamConfig tunes the streaming pipeline's stage widths.
type StreamConfig = engine.StreamConfig

// StreamEngine returns the context's default streaming pipeline engine
// (NumCPU blind-rotate workers), building it on first use. See
// NewStreamingEngine for explicit stage widths.
func (c *FHEContext) StreamEngine() *engine.StreamingEngine {
	c.streamOnce.Do(func() { c.streamEng = engine.NewStreaming(c.EK, engine.StreamConfig{}) })
	return c.streamEng
}

// NewStreamingEngine returns a fresh streaming pipeline engine over this
// context's keys with explicit stage widths.
func (c *FHEContext) NewStreamingEngine(cfg StreamConfig) *engine.StreamingEngine {
	return engine.NewStreaming(c.EK, cfg)
}

// Stream applies one gate pairwise over two ciphertext slices on the
// default streaming pipeline: out[i] = op(a[i], b[i]). Unlike BatchGate's
// flat one-worker-per-gate fan-out, ciphertexts flow through specialized
// PBS stages (modswitch → blind rotate → extract → fused keyswitch) with
// the sign test vector encoded once for the whole stream. Results are
// bitwise identical to both Eval and BatchGate.
func (c *FHEContext) Stream(op GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return c.StreamEngine().StreamGate(op, a, b)
}

// StreamLUT applies the lookup table f (on {0..space-1}) to every
// ciphertext on the default streaming pipeline — the §IV-C PBS→KS sequence
// with the LUT encoded once and shared across the stream.
func (c *FHEContext) StreamLUT(cts []tfhe.LWECiphertext, space int, f func(int) int) []tfhe.LWECiphertext {
	return c.StreamEngine().StreamLUT(cts, space, f)
}

// EvalMultiLUT applies k lookup functions (each on {0..space-1}) to one
// encrypted message with a single multi-value bootstrap: the k tables
// pack into one test vector, one blind rotation serves them all, and
// out[j] is fs[j](m) at dimension n (keyswitched). Packing requires
// space·k ≤ N and shrinks the noise margin to 1/(4·space·k); with one
// table the result is bitwise identical to a plain LUT evaluation.
func (c *FHEContext) EvalMultiLUT(ct tfhe.LWECiphertext, space int, fs ...func(int) int) []tfhe.LWECiphertext {
	return c.Eval.EvalMultiLUTKS(ct, space, fs)
}

// BatchMultiLUT applies k lookup functions to every ciphertext on the
// default engine — one multi-value bootstrap per item, out[i][j] =
// fs[j](m_i).
func (c *FHEContext) BatchMultiLUT(cts []tfhe.LWECiphertext, space int, fs ...func(int) int) ([][]tfhe.LWECiphertext, error) {
	return c.Engine().BatchMultiLUT(cts, space, fs)
}

// StreamMultiLUT applies k lookup functions to every ciphertext on the
// default streaming pipeline: the packed test vector is encoded once for
// the stream, and the extract stage fans each rotation out into k fused
// PBS→KS outputs.
func (c *FHEContext) StreamMultiLUT(cts []tfhe.LWECiphertext, space int, fs ...func(int) int) ([][]tfhe.LWECiphertext, error) {
	return c.StreamEngine().StreamMultiLUT(cts, space, fs)
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
	return c.Engine().BatchGate(op, a, b)
}

// EvalCircuit evaluates a dependency-free gate list over the input wires
// on the default engine, one output per gate.
func (c *FHEContext) EvalCircuit(inputs []tfhe.LWECiphertext, gates []Gate) ([]tfhe.LWECiphertext, error) {
	return c.Engine().EvalCircuit(inputs, gates)
}

// Circuit is a gate/LUT dataflow graph built with a CircuitBuilder; the
// scheduler levelizes it into engine batches (see Compile, RunCircuit).
type Circuit = sched.Circuit

// CircuitBuilder records a circuit node by node: inputs, free linear
// combinations, boolean gates, and PBS lookup tables.
type CircuitBuilder = sched.Builder

// Schedule is a compiled circuit: maximal dependency-free levels, each
// grouped into per-op / per-table dispatches with batch-vs-stream routing.
type Schedule = sched.Schedule

// ScheduleConfig tunes circuit compilation: which optimizer passes run
// before levelization.
type ScheduleConfig = sched.Config

// CircuitRunner executes schedules over a batch engine and a streaming
// engine, honoring each dispatch's cost-model routing.
type CircuitRunner = sched.Runner

// NewCircuitBuilder returns an empty circuit builder.
func NewCircuitBuilder() *CircuitBuilder { return sched.NewBuilder() }

// Compile levelizes a circuit into a schedule of engine dispatches.
func (c *FHEContext) Compile(circ *Circuit, cfg ScheduleConfig) (*Schedule, error) {
	return sched.Compile(circ, cfg)
}

// Runner returns a circuit runner over the context's default engines
// (building them on first use): short dispatches go to the flat batch
// pool, long ones to the streaming pipeline.
func (c *FHEContext) Runner() *CircuitRunner {
	return &sched.Runner{Batch: c.Engine(), Stream: c.StreamEngine()}
}

// RunCircuit compiles the circuit exactly as built and executes it level
// by level on the default engines. Results are bitwise identical to
// evaluating the circuit node by node with Eval.
func (c *FHEContext) RunCircuit(circ *Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return c.Runner().Run(circ, ScheduleConfig{}, inputs)
}

// RunSchedule executes an already-compiled schedule on the default
// engines — the path for callers that run one circuit many times.
func (c *FHEContext) RunSchedule(circ *Circuit, s *Schedule, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return c.Runner().RunSchedule(circ, s, inputs)
}

// OptConfig selects the scheduler's optimizer passes (CSE, dead-node
// pruning, linear-chain folding, bootstrap fusion, multi-value packing).
type OptConfig = sched.OptConfig

// PassStat is one optimizer pass's accounting in Schedule stats.
type PassStat = sched.PassStat

// OptAll enables every optimizer pass with the default packing width.
func OptAll() OptConfig { return sched.OptAll() }

// Optimize runs the selected passes over a circuit without compiling
// it, returning the rewritten circuit and per-pass accounting. Most
// callers instead set ScheduleConfig.Opt and let Compile optimize.
func Optimize(circ *Circuit, opt OptConfig) (*Circuit, []PassStat, error) {
	return sched.Optimize(circ, opt)
}

// OptimizedConfig is the context's recommended optimizing compile
// configuration: every pass on, with the multi-value packing budget
// bound to the context's parameter set so packed groups always satisfy
// space·k ≤ N. Outputs of schedules compiled this way decode
// identically to the unoptimized circuit but are not bitwise identical.
func (c *FHEContext) OptimizedConfig() ScheduleConfig {
	opt := sched.OptAll()
	opt.MultiValueBudget = c.Params.N
	return ScheduleConfig{Opt: opt}
}

// RunCircuitOptimized is RunCircuit with the optimizer pass pipeline
// enabled under OptimizedConfig.
func (c *FHEContext) RunCircuitOptimized(circ *Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return c.Runner().Run(circ, c.OptimizedConfig(), inputs)
}

// ServiceConfig tunes the networked gate service (session bounds,
// backpressure, coalescing, and per-session streaming stage widths).
type ServiceConfig = server.Config

// GateService is the session-sharded FHE gate server: clients register
// evaluation keys over the wire and stream gate/LUT batches through
// per-session streaming engines. See NewGateService, Serve, and Dial.
type GateService = server.Server

// GateClient speaks the gate service's HTTP API for one client ID,
// shipping only evaluation keys and ciphertexts — secret keys stay with
// the caller.
type GateClient = server.Client

// SessionStore is the durable tier behind the gate service's warm
// session LRU: wire-encoded evaluation keys that survive eviction (and,
// with a DiskStore, restarts), keyed by client ID.
type SessionStore = server.SessionStore

// DiskStore is the crash-safe on-disk SessionStore: wire-codec key files
// plus a checksummed write-ahead log, replayed and repaired on open.
type DiskStore = server.DiskStore

// MemStore is the in-memory SessionStore: it survives warm-tier
// eviction but not a process restart.
type MemStore = server.MemStore

// APIError is the typed client-side form of a non-2xx gate-service
// response: machine-readable code, HTTP status, human message.
type APIError = server.APIError

// SessionInfo is one row of the gate service's session listing.
type SessionInfo = server.SessionInfo

// NewGateService builds a gate service. The zero ServiceConfig gives a
// 64-session LRU, 64 pending requests per session, and NumCPU rotate
// workers per session engine.
func NewGateService(cfg ServiceConfig) *GateService {
	return server.New(cfg)
}

// OpenGateService builds a gate service with durable key persistence:
// when cfg.Store is nil and cfg.DataDir is set, a DiskStore is opened
// (created, or crash-recovered) there. Sessions registered before a
// restart are served again without re-uploading keys, with bitwise-
// identical results.
func OpenGateService(cfg ServiceConfig) (*GateService, error) {
	return server.Open(cfg)
}

// OpenDiskStore opens (creating if needed) a crash-safe on-disk session
// store rooted at dir, replaying and repairing its write-ahead log.
func OpenDiskStore(dir string) (*DiskStore, error) {
	return server.OpenDiskStore(dir)
}

// NewMemStore returns an empty in-memory session store.
func NewMemStore() *MemStore {
	return server.NewMemStore()
}

// Serve runs the gate service's HTTP API on the listener until it fails
// or is closed — the server half of the client/server split (clients keep
// secret keys; the service holds only evaluation keys). The underlying
// http.Server carries connection timeouts so unauthenticated peers cannot
// park half-read bodies or idle connections indefinitely; the read
// timeout is generous because evaluation-key uploads are legitimately
// large (set IV is ~1.09 GB, streamed). There is deliberately no write
// timeout: a response is only written after the FHE computation, which
// can itself take minutes on full-scale parameters.
func Serve(l net.Listener, srv *GateService) error {
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.Serve(l)
}

// ServeDrain runs the gate service's HTTP API on the listener until
// drain is closed, then shuts down gracefully: the service stops
// admitting work (healthz flips to draining, new requests get 503
// shutting_down), every in-flight request — including open group-commit
// streams — runs to completion, the session store is flushed and closed,
// and open connections are torn down. It returns nil after a clean
// drain, or the listener's error if serving failed first.
func ServeDrain(l net.Listener, srv *GateService, drain <-chan struct{}) error {
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-drain:
	}
	// Refuse new work and wait out in-flight requests before closing
	// connections, so every accepted request gets its response.
	drainErr := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	return drainErr
}

// Dial returns a client for the gate service at baseURL (e.g.
// "http://127.0.0.1:8475") acting as clientID. Register the context's
// evaluation keys with RegisterKey, then batch gates and LUTs remotely.
// The same client drives a single node or a Router front — the API
// surface is identical.
func Dial(baseURL, clientID string) *GateClient {
	return server.Dial(baseURL, clientID)
}

// EvalRequest is the versioned /v2/eval envelope: one frame for every
// batch evaluation (gate, LUT, multi-value LUT, circuit), selected by
// its Kind field.
type EvalRequest = server.EvalRequest

// EvalOpts carries the option surface of a v2 evaluation envelope, such
// as enabling the server-side optimizer pass pipeline for circuits.
type EvalOpts = server.EvalOpts

// Encrypted inference: the gate service serves a built-in cellCNN-style
// classifier as a first-class scenario (kind "infer" on /v2/eval).
// Clients encrypt each feature digit in the InferSpace PBS encoding,
// upload vector-major batches with GateClient.Infer, and decode the
// returned class scores in the same space; InferReference is the
// quantized cleartext golden model the encrypted path is
// conformance-pinned against, exhaustively over InferSweep.
const (
	// InferSpace is the PBS message space inference features and class
	// scores are encoded in.
	InferSpace = workload.InferSpace
	// InferFeatures is the flat feature-vector length of one inference.
	InferFeatures = workload.InferFeatures
	// InferClasses is the number of class scores per inference.
	InferClasses = workload.InferClasses
	// InferDigitMax is the largest admissible feature or score digit.
	InferDigitMax = workload.InferDigitMax
)

// BuildInferenceCircuit builds the inference model over batch feature
// vectors as a plain circuit — the same circuit the gate service
// executes for kind "infer" — for callers running it locally through
// the scheduler (inputs batch·InferFeatures wires vector-major, outputs
// batch·InferClasses score wires).
func BuildInferenceCircuit(batch int) (*Circuit, error) {
	return workload.BuildInferBatch(batch)
}

// InferReference computes the quantized cleartext class scores for one
// feature vector — what the encrypted scores must decode to.
func InferReference(features []int) ([]int, error) {
	return workload.InferReference(features)
}

// InferPredict returns the predicted class of a score vector: the
// argmax, lowest class on ties.
func InferPredict(scores []int) int { return workload.InferPredict(scores) }

// InferSweep enumerates the model's full input domain, in lexicographic
// order — small enough to pin encrypted inference exhaustively.
func InferSweep() [][]int { return workload.InferSweep() }

// RouterConfig tunes the routing tier: backend pool, health probing,
// ejection/re-admission thresholds, forward retries, and the
// cluster-wide admission cap.
type RouterConfig = router.Config

// Router is the cluster tier of the gate service: it consistent-hashes
// client sessions over a pool of gate-service nodes, health-checks the
// pool, retries idempotent forwards, and presents the same HTTP surface
// as a single node. See NewRouter and ServeRouter.
type Router = router.Router

// NewRouter builds a routing tier over the configured backend pool and
// starts its health probes.
func NewRouter(cfg RouterConfig) (*Router, error) {
	return router.New(cfg)
}

// ServeRouter runs the router's HTTP API on the listener until it fails
// or is closed. Timeouts match Serve: key uploads are large and routed
// evaluations can legitimately run for minutes.
func ServeRouter(l net.Listener, rt *Router) error {
	hs := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.Serve(l)
}

// ServeRouterDrain runs the router's HTTP API on the listener until
// drain is closed, then shuts down gracefully: new work is refused with
// the typed shutting_down code while every in-flight forward runs to
// completion on its backend. It returns nil after a clean drain, or the
// listener's error if serving failed first.
func ServeRouterDrain(l net.Listener, rt *Router, drain <-chan struct{}) error {
	hs := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-drain:
	}
	rt.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-errc
	rt.Close()
	return nil
}

// Accelerator wraps the Strix performance model and epoch scheduler.
type Accelerator struct {
	Config arch.Config
	Model  arch.Model
	Chip   arch.Chip
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
	chip, err := arch.NewChip(cfg, p)
	if err != nil {
		return nil, err
	}
	return &Accelerator{Config: cfg, Model: chip.Model, Chip: chip}, nil
}

// ThroughputPBS returns sustained PBS/s.
func (a *Accelerator) ThroughputPBS() float64 { return a.Model.ThroughputPBS() }

// LatencyMs returns single-PBS latency in milliseconds.
func (a *Accelerator) LatencyMs() float64 { return a.Model.LatencySeconds() * 1e3 }

// RunPBS schedules count independent PBS+KS operations.
func (a *Accelerator) RunPBS(count int) (arch.WorkloadResult, error) {
	return a.Chip.RunPBS(count)
}

// RunLayers schedules dependent layers (e.g. a neural network).
func (a *Accelerator) RunLayers(layers []int) (arch.WorkloadResult, error) {
	return a.Chip.RunLayers(layers)
}

// RunExperiment regenerates one of the paper's tables/figures by ID
// (see ExperimentIDs).
func RunExperiment(id string) (experiments.Report, error) {
	return experiments.Run(id)
}

// ExperimentIDs lists the available experiment IDs.
func ExperimentIDs() []string { return experiments.IDs() }

// Version is the library version.
const Version = "1.0.0"
