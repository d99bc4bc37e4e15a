package conformance

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"

	"repro/internal/engine"
	"repro/internal/fft"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// Backend is one execution path for the public operation surface. Every
// method takes dimension-n inputs and returns dimension-n outputs (the
// full PBS + keyswitch pipeline per item), in input order.
type Backend interface {
	// Name identifies the backend in failure messages.
	Name() string
	// Bitwise reports the conformance relation the backend promises
	// against the sequential reference: bitwise-identical ciphertexts,
	// or (for backends that re-synthesize bootstraps, like the
	// optimizing scheduler) identical decoded plaintexts only.
	Bitwise() bool
	// Gate evaluates out[i] = op(a[i], b[i]); b is nil for the unary NOT.
	Gate(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)
	// LUT applies the k ≥ 1 tables (message space space) to every
	// ciphertext, one shared blind rotation per ciphertext (multi-value
	// PBS; one table is the plain lookup): out[i][j] is tables[j] applied
	// to cts[i].
	LUT(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error)
	// Circuit executes a built circuit over the inputs.
	Circuit(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)
	// Infer runs the built-in cellCNN-style inference model over a batch
	// of encrypted feature vectors (vector-major, workload.InferFeatures
	// ciphertexts each); out[i] is inference i's workload.InferClasses
	// encrypted class scores.
	Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error)
}

// inferViaCircuit implements Infer for backends whose service surface is
// a circuit executor: build the model for the batch, run it, and regroup
// the flat scores per vector. Service backends instead ship the infer
// envelope, exercising the server-built model path.
func inferViaCircuit(be Backend, features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	if len(features) == 0 || len(features)%workload.InferFeatures != 0 {
		return nil, fmt.Errorf("conformance: %d feature ciphertexts is not a multiple of %d", len(features), workload.InferFeatures)
	}
	circ, err := workload.BuildInferBatch(len(features) / workload.InferFeatures)
	if err != nil {
		return nil, err
	}
	flat, err := be.Circuit(circ, features)
	if err != nil {
		return nil, err
	}
	return perInput(flat, workload.InferClasses), nil
}

// perInput splits an input-major output batch into its k outputs per
// input.
func perInput(flat []tfhe.LWECiphertext, k int) [][]tfhe.LWECiphertext {
	out := make([][]tfhe.LWECiphertext, len(flat)/k)
	for i := range out {
		out[i] = flat[i*k : (i+1)*k]
	}
	return out
}

// EqualLWE reports whether two ciphertexts are bitwise identical — the
// conformance relation (tfhe.EqualLWE, re-exposed where the suite states
// its contract).
func EqualLWE(a, b tfhe.LWECiphertext) bool {
	return tfhe.EqualLWE(a, b)
}

// Fixture bundles one deterministic key set with every backend wired to
// it, including a live in-process gate service, a second service
// restored from a drained durable store, and a two-node routed cluster.
// Close releases every service, the router, and the store directory.
type Fixture struct {
	SK tfhe.SecretKeys
	EK tfhe.EvaluationKeys

	backends []Backend
	ts       *httptest.Server
	tsRest   *httptest.Server
	dir      string

	rt       *router.Router
	tsRouter *httptest.Server
	tsNodes  [2]*httptest.Server
}

// NewFixture generates keys for parameter set p from seed and stands up
// every backend over them.
func NewFixture(seed int64, p tfhe.Params) (*Fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	sk, ek := tfhe.GenerateKeys(rng, p)
	f := &Fixture{SK: sk, EK: ek}

	srv := server.New(server.Config{})
	f.ts = httptest.NewServer(srv.Handler())
	cl := server.Dial(f.ts.URL, "conformance")
	if err := cl.RegisterKey(ek); err != nil {
		f.Close()
		return nil, err
	}

	// Restored-server backend: the same keys registered against a
	// durable server, drained to disk, and served by a fresh server over
	// the same directory — the strixserv -data restart path. Its session
	// is rebuilt from persisted bytes, never re-registered, so this
	// backend pins crash recovery to the bitwise contract.
	dir, err := os.MkdirTemp("", "strix-conformance-")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.dir = dir
	pre, err := server.Open(server.Config{DataDir: dir})
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := pre.RegisterKey("conformance", ek); err != nil {
		f.Close()
		return nil, err
	}
	if err := pre.Drain(); err != nil {
		f.Close()
		return nil, err
	}
	restored, err := server.Open(server.Config{DataDir: dir})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.tsRest = httptest.NewServer(restored.Handler())
	clRest := server.Dial(f.tsRest.URL, "conformance")

	// Routed-cluster backend: the same keys registered through a router
	// fronting two fresh nodes. The session pins to its rendezvous home
	// and every envelope takes the extra routed hop, so this backend pins
	// the routing tier — shard pick, forward, response passthrough — to
	// the bitwise contract.
	for i := range f.tsNodes {
		node := server.New(server.Config{})
		f.tsNodes[i] = httptest.NewServer(node.Handler())
	}
	rt, err := router.New(router.Config{Backends: []string{f.tsNodes[0].URL, f.tsNodes[1].URL}})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.rt = rt
	f.tsRouter = httptest.NewServer(rt.Handler())
	clRouted := server.Dial(f.tsRouter.URL, "conformance")
	if err := clRouted.RegisterKey(ek); err != nil {
		f.Close()
		return nil, err
	}

	stream := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 2})
	runner := &sched.Runner{Stream: stream}
	// The optimized backend runs the full pass pipeline, packing for the
	// fixture's parameter set.
	opt := sched.OptAll()
	opt.Params = p
	f.backends = []Backend{
		seqBackend{ev: tfhe.NewEvaluator(ek)},
		engineBackend{eng: stream, r: runner},
		schedBackend{r: runner},
		serverBackend{cl: cl},
		restoredBackend{serverBackend{cl: clRest}},
		optimizedBackend{schedBackend{r: runner, cfg: sched.Config{Opt: opt}}},
		kernelBackend{seqBackend{ev: tfhe.NewEvaluator(ek)}, "reference-kernel", "ref"},
		kernelBackend{seqBackend{ev: tfhe.NewEvaluator(ek)}, "avx2-kernel", "avx2"},
		routedBackend{serverBackend{cl: clRouted}},
		inferBackend{serverBackend{cl: cl}},
	}
	return f, nil
}

// Backends returns the ten backends; index 0 is the sequential
// reference every other backend must match — bitwise when the backend's
// Bitwise() promise holds, by decoded plaintext otherwise.
func (f *Fixture) Backends() []Backend { return f.backends }

// Close shuts every in-process gate service and the router down and
// removes the durable store directory.
func (f *Fixture) Close() {
	if f.ts != nil {
		f.ts.Close()
	}
	if f.tsRest != nil {
		f.tsRest.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	if f.tsRouter != nil {
		f.tsRouter.Close()
	}
	for _, ts := range f.tsNodes {
		if ts != nil {
			ts.Close()
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// seqBackend is the sequential evaluator — the bitwise reference.
type seqBackend struct {
	ev *tfhe.Evaluator
}

func (s seqBackend) Name() string { return "sequential" }

func (s seqBackend) Bitwise() bool { return true }

func (s seqBackend) Gate(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	out := make([]tfhe.LWECiphertext, len(a))
	for i := range a {
		switch op {
		case engine.NAND:
			out[i] = s.ev.NAND(a[i], b[i])
		case engine.AND:
			out[i] = s.ev.AND(a[i], b[i])
		case engine.OR:
			out[i] = s.ev.OR(a[i], b[i])
		case engine.NOR:
			out[i] = s.ev.NOR(a[i], b[i])
		case engine.XOR:
			out[i] = s.ev.XOR(a[i], b[i])
		case engine.XNOR:
			out[i] = s.ev.XNOR(a[i], b[i])
		case engine.NOT:
			out[i] = s.ev.NOT(a[i])
		default:
			return nil, fmt.Errorf("conformance: unknown gate %d", int(op))
		}
	}
	return out, nil
}

func (s seqBackend) LUT(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	out := make([][]tfhe.LWECiphertext, len(cts))
	for i, ct := range cts {
		out[i] = s.ev.EvalLUTKS(ct, space, tfhe.TableFuncs(tables))
	}
	return out, nil
}

func (s seqBackend) Circuit(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return sched.RunSequential(circ, s.ev, inputs)
}

func (s seqBackend) Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	return inferViaCircuit(s, features)
}

// engineBackend is the in-process streaming engine reached directly
// through its operations. Circuits run through a Runner over the same
// engine.
type engineBackend struct {
	eng *engine.StreamingEngine
	r   *sched.Runner
}

func (e engineBackend) Name() string { return "streaming" }

func (e engineBackend) Bitwise() bool { return true }

func (e engineBackend) Gate(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return e.eng.Gates(op.Repeat(len(a)), a, b)
}

func (e engineBackend) LUT(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	flat, err := e.eng.LUT(cts, space, tfhe.TableFuncs(tables))
	if err != nil {
		return nil, err
	}
	return perInput(flat, len(tables)), nil
}

func (e engineBackend) Circuit(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return e.r.Run(circ, sched.Config{}, inputs)
}

func (e engineBackend) Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	return inferViaCircuit(e, features)
}

// schedBackend reaches every operation through the circuit scheduler:
// each call is built as a one-level circuit, compiled, and dispatched to
// the engine — the path whole workloads take.
type schedBackend struct {
	r *sched.Runner
	// cfg is the compile configuration every operation is scheduled
	// under; the zero value compiles circuits exactly as built.
	cfg sched.Config
}

func (s schedBackend) Name() string { return "scheduled" }

func (s schedBackend) Bitwise() bool { return true }

func (s schedBackend) Gate(op engine.GateOp, a, bs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	b := sched.NewBuilder()
	inputs := make([]tfhe.LWECiphertext, 0, 2*len(a))
	for i := range a {
		aw := b.Input()
		inputs = append(inputs, a[i])
		bw := sched.Wire(-1)
		if op != engine.NOT {
			bw = b.Input()
			inputs = append(inputs, bs[i])
		}
		b.Output(b.Gate(op, aw, bw))
	}
	circ, err := b.Build()
	if err != nil {
		return nil, err
	}
	return s.r.Run(circ, s.cfg, inputs)
}

func (s schedBackend) LUT(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	b := sched.NewBuilder()
	for range cts {
		b.Output(b.LUT(b.Input(), space, tables...)...)
	}
	circ, err := b.Build()
	if err != nil {
		return nil, err
	}
	flat, err := s.r.Run(circ, s.cfg, cts)
	if err != nil {
		return nil, err
	}
	return perInput(flat, len(tables)), nil
}

func (s schedBackend) Circuit(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.r.Run(circ, s.cfg, inputs)
}

func (s schedBackend) Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	return inferViaCircuit(s, features)
}

// serverBackend reaches every operation through the gate service's HTTP
// API: wire codec, JSON framing, session lookup and backpressure all sit
// between the call and the engine.
type serverBackend struct {
	cl *server.Client
}

func (s serverBackend) Name() string { return "server" }

func (s serverBackend) Bitwise() bool { return true }

func (s serverBackend) Gate(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.cl.GateBatch(op, a, b)
}

func (s serverBackend) LUT(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	return s.cl.LUTBatch(cts, space, tables...)
}

func (s serverBackend) Circuit(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return s.cl.CircuitBatch(circ, inputs)
}

func (s serverBackend) Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	return s.cl.Infer(features, server.EvalOpts{})
}

// restoredBackend is the server backend over a service whose session was
// recovered from a drained durable store rather than registered — same
// HTTP surface, but the evaluation keys took the disk round trip.
type restoredBackend struct {
	serverBackend
}

func (restoredBackend) Name() string { return "restored-server" }

// optimizedBackend is the scheduler backend with the full optimizer
// pass pipeline enabled. Fusion and multi-value packing re-synthesize
// bootstraps, so its contract is decode identity, not bitwise identity
// — the suite checks its outputs against the plaintext expectations
// every other backend's bitwise reference is itself checked against.
type optimizedBackend struct {
	schedBackend
}

func (optimizedBackend) Name() string { return "optimized-scheduled" }

func (optimizedBackend) Bitwise() bool { return false }

// routedBackend is the server backend reached through the routing tier:
// the client talks to a router that consistent-hashes the session onto
// one of two nodes and forwards every envelope there. Same bitwise
// contract as the direct server backend — routing must never touch the
// ciphertexts.
type routedBackend struct {
	serverBackend
}

func (routedBackend) Name() string { return "routed-cluster" }

// kernelBackend is the sequential evaluator with the FFT kernels — and
// the keyswitch's MulSub — held at one kernel set (fft.SetKernelSet) for
// the duration of each operation: "ref", every SIMD body off, forcing the
// pure-Go reference (the reference-kernel backend), or "avx2", the
// AVX-512 bodies off (the avx2-kernel backend). Every set promises
// bitwise-identical arithmetic, so the contract against the sequential
// reference, which runs the host's fastest set, is full bitwise equality:
// the suite pins each set to the one the host runs by default on every
// public operation, and so the AVX2 bodies, which every other amd64 host
// runs, stay checked on an AVX-512 host. Where the host lacks the set, or
// has nothing above it, the backend degenerates to a second sequential
// evaluator. The kernel selection is process-global, so this backend
// must not run concurrently with other backends' operations — the suite
// runs backends one at a time.
type kernelBackend struct {
	seqBackend
	name, set string
}

func (k kernelBackend) Name() string { return k.name }

func (k kernelBackend) Gate(op engine.GateOp, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	defer fft.SetKernelSet(fft.SetKernelSet(k.set))
	return k.seqBackend.Gate(op, a, b)
}

func (k kernelBackend) LUT(cts []tfhe.LWECiphertext, space int, tables [][]int) ([][]tfhe.LWECiphertext, error) {
	defer fft.SetKernelSet(fft.SetKernelSet(k.set))
	return k.seqBackend.LUT(cts, space, tables)
}

func (k kernelBackend) Circuit(circ *sched.Circuit, inputs []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	defer fft.SetKernelSet(fft.SetKernelSet(k.set))
	return k.seqBackend.Circuit(circ, inputs)
}

func (k kernelBackend) Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	defer fft.SetKernelSet(fft.SetKernelSet(k.set))
	return k.seqBackend.Infer(features)
}

// inferBackend is the encrypted-inference service scenario end to end:
// the infer envelope over HTTP with the optimizer pass pipeline enabled
// server-side. Optimization re-synthesizes bootstraps (multi-value
// packing in the dense layer), so like the optimized scheduler its
// contract is decode identity against the cleartext reference, not
// bitwise identity with the sequential backend.
type inferBackend struct {
	serverBackend
}

func (inferBackend) Name() string { return "encrypted-inference" }

func (inferBackend) Bitwise() bool { return false }

func (b inferBackend) Infer(features []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	return b.cl.Infer(features, server.EvalOpts{Optimize: true})
}
