package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// env is what a workload's set-up is given: the parameter set, the seed
// every key, plaintext and draw order derives from, and the tracer of a
// traced replay (nil otherwise). oneInFlight limits the workload to a
// single client, which the tracer and the untraced replay it is compared
// with both need.
type env struct {
	params      tfhe.Params
	seed        int64
	tr          *tracer
	oneInFlight bool
}

// instance is a workload that is set up, warm and ready to be timed.
type instance struct {
	clients int
	op      opFunc
	// bitwise re-runs op 0 and compares its outputs bit for bit with the
	// sequential reference; nil where the workload has none.
	bitwise func() error
	// stats is the server's own view; the service workloads set it.
	stats func() server.Stats
	close func()
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name     string
	pbsPerOp int // nominal bootstraps per op, from the unoptimised definition
	setup    func(env) (*instance, error)
}

var workloads = []workload{
	{"gates_stream_I", 8, setupGatesStream},
	{"adder4_sched_I", 17, setupAdder4},
	{"serve_gates_I", 4, setupServeGates},
	{"session_churn_I", 1, setupSessionChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadClients is the closed-loop client count of the service workloads:
// two, but never more than the machine has CPUs, because the clients run
// in the process they load.
func loadClients(e env) int {
	if e.oneInFlight {
		return 1
	}
	return min(2, runtime.NumCPU())
}

// boolPool is a pool of encrypted bit pairs with their plaintexts; ops
// draw from it in an order fixed by the seed.
type boolPool struct {
	a, b       []tfhe.LWECiphertext
	bitA, bitB []bool
	order      []int
}

func newBoolPool(rng *rand.Rand, sk tfhe.SecretKeys, n int) *boolPool {
	p := &boolPool{order: rng.Perm(n)}
	for i := 0; i < n; i++ {
		x, y := rng.Intn(2) == 1, rng.Intn(2) == 1
		p.bitA, p.bitB = append(p.bitA, x), append(p.bitB, y)
		p.a, p.b = append(p.a, sk.EncryptBool(rng, x)), append(p.b, sk.EncryptBool(rng, y))
	}
	return p
}

// draw returns the k pairs of the pool's i-th draw and their NAND.
func (p *boolPool) draw(i, k int) (a, b []tfhe.LWECiphertext, nand []bool) {
	for j := 0; j < k; j++ {
		idx := p.order[(i*k+j)%len(p.order)]
		a, b = append(a, p.a[idx]), append(b, p.b[idx])
		nand = append(nand, !(p.bitA[idx] && p.bitB[idx]))
	}
	return a, b, nand
}

// checkBools decrypts out and compares it with the plaintext truth.
func checkBools(sk tfhe.SecretKeys, out []tfhe.LWECiphertext, want []bool) error {
	if len(out) != len(want) {
		return fmt.Errorf("got %d outputs, want %d", len(out), len(want))
	}
	for i, ct := range out {
		if got := sk.DecryptBool(ct); got != want[i] {
			return fmt.Errorf("output %d decrypts to %v, want %v", i, got, want[i])
		}
	}
	return nil
}

// sameBits reports an error unless the two ciphertext batches are bitwise
// identical.
func sameBits(got, ref []tfhe.LWECiphertext) error {
	if g, r := wire.DigestLWEs(got), wire.DigestLWEs(ref); g != r {
		return fmt.Errorf("outputs differ bitwise from the sequential reference (digest %s, want %s)", g, r)
	}
	return nil
}

// verified completes an op outside the timed loop: it takes what the op
// returned and runs the verification. Set-up uses it for the warm-up ops
// that build lazily allocated tables, scratch and connections before the
// window opens.
func verified(verify func() error, err error) error {
	if err != nil {
		return err
	}
	return verify()
}

// gates_stream_I: one streaming engine, one caller, 8 NANDs per op.
func setupGatesStream(e env) (*instance, error) {
	const pairs = 8
	rng := rand.New(rand.NewSource(e.seed))
	sk, ek := tfhe.GenerateKeys(rng, e.params)
	se := engine.NewStreaming(ek, engine.StreamConfig{})
	pool := newBoolPool(rng, sk, 64)
	op := func(_, i int) (func() error, error) {
		a, b, want := pool.draw(i, pairs)
		done := e.tr.start("engine.StreamGate")
		out, err := se.StreamGate(engine.NAND, a, b)
		done()
		if err != nil {
			return nil, err
		}
		return func() error { return checkBools(sk, out, want) }, nil
	}
	bitwise := func() error {
		a, b, _ := pool.draw(0, pairs)
		got, err := se.StreamGate(engine.NAND, a, b)
		if err != nil {
			return err
		}
		ev := tfhe.NewEvaluator(ek)
		ref := make([]tfhe.LWECiphertext, pairs)
		for j := range ref {
			ref[j] = ev.NAND(a[j], b[j])
		}
		return sameBits(got, ref)
	}
	if err := verified(op(0, 0)); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return &instance{clients: 1, op: op, bitwise: bitwise, close: func() {}}, nil
}

// adderBits is the operand width of the ripple-carry adder.
const adderBits = 4

// buildAdder builds the 4-bit ripple-carry adder: inputs x0..x3, y0..y3
// (least significant first), outputs s0..s3 and the carry. 17 gates in 7
// levels: the 8 propagate/generate gates, then 2, 1, 2, 1, 2, 1.
func buildAdder() (*sched.Circuit, error) {
	b := sched.NewBuilder()
	x, y := b.Inputs(adderBits), b.Inputs(adderBits)
	var carry sched.Wire
	for i := 0; i < adderBits; i++ {
		p := b.Gate(engine.XOR, x[i], y[i])
		g := b.Gate(engine.AND, x[i], y[i])
		if i == 0 {
			b.Output(p)
			carry = g
			continue
		}
		b.Output(b.Gate(engine.XOR, p, carry))
		carry = b.Gate(engine.OR, g, b.Gate(engine.AND, p, carry))
	}
	b.Output(carry)
	return b.Build()
}

// adderOperand is one encrypted (x, y) pair of the adder's operand pool.
type adderOperand struct {
	inputs []tfhe.LWECiphertext
	sum    []bool // plaintext x+y, adderBits+1 bits, least significant first
}

func newAdderOperands(rng *rand.Rand, sk tfhe.SecretKeys, n int) []adderOperand {
	ops := make([]adderOperand, n)
	for i := range ops {
		x, y := rng.Intn(1<<adderBits), rng.Intn(1<<adderBits)
		for _, v := range []int{x, y} {
			for bit := 0; bit < adderBits; bit++ {
				ops[i].inputs = append(ops[i].inputs, sk.EncryptBool(rng, v>>bit&1 == 1))
			}
		}
		for bit := 0; bit <= adderBits; bit++ {
			ops[i].sum = append(ops[i].sum, (x+y)>>bit&1 == 1)
		}
	}
	return ops
}

// tracedExecutor records a span around every dispatch the scheduler hands
// to the engines.
type tracedExecutor struct {
	sched.Executor
	tr *tracer
}

func (x tracedExecutor) Gate(d sched.Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	name := "engine.BatchGate"
	if d.Stream {
		name = "engine.StreamGate"
	}
	defer x.tr.start(name)()
	return x.Executor.Gate(d, a, b)
}

// adder4_sched_I: one scheduled run of the adder per op, both engines
// attached, zero-value scheduler config.
func setupAdder4(e env) (*instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	sk, ek := tfhe.GenerateKeys(rng, e.params)
	circ, err := buildAdder()
	if err != nil {
		return nil, fmt.Errorf("build adder: %w", err)
	}
	runner := &sched.Runner{Batch: engine.New(ek, engine.Config{}), Stream: engine.NewStreaming(ek, engine.StreamConfig{})}
	operands := newAdderOperands(rng, sk, 16)
	run := func(in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
		if e.tr == nil {
			return runner.Run(circ, sched.Config{}, in)
		}
		// The same two steps Runner.Run takes, with a span on each.
		done := e.tr.start("sched.Compile")
		s, err := sched.Compile(circ, sched.Config{})
		done()
		if err != nil {
			return nil, err
		}
		defer e.tr.start("sched.Execute")()
		return sched.Execute(circ, s, in, tracedExecutor{runner, e.tr})
	}
	op := func(_, i int) (func() error, error) {
		operand := operands[i%len(operands)]
		out, err := run(operand.inputs)
		if err != nil {
			return nil, err
		}
		return func() error { return checkBools(sk, out, operand.sum) }, nil
	}
	bitwise := func() error {
		got, err := runner.Run(circ, sched.Config{}, operands[0].inputs)
		if err != nil {
			return err
		}
		ref, err := sched.RunSequential(circ, tfhe.NewEvaluator(ek), operands[0].inputs)
		if err != nil {
			return err
		}
		return sameBits(got, ref)
	}
	if err := verified(op(0, 0)); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return &instance{clients: 1, op: op, bitwise: bitwise, close: func() {}}, nil
}

// identity is one service client: its keys, its connection to the router
// and its pool of encrypted inputs.
type identity struct {
	sk   tfhe.SecretKeys
	ek   tfhe.EvaluationKeys
	cl   *server.Client
	pool *boolPool
}

func newIdentities(rng *rand.Rand, e env, st *stack, n, poolSize int) []*identity {
	ids := make([]*identity, n)
	for i := range ids {
		sk, ek := tfhe.GenerateKeys(rng, e.params)
		ids[i] = &identity{sk: sk, ek: ek, cl: server.Dial(st.front, fmt.Sprintf("bench-%d", i)), pool: newBoolPool(rng, sk, poolSize)}
	}
	return ids
}

// nandOver sends draw i of the identity's pool, k pairs, as one NAND
// request through the router.
func (id *identity) nandOver(tr *tracer, i, k int) (func() error, error) {
	a, b, want := id.pool.draw(i, k)
	done := tr.start("client.GateBatch")
	out, err := id.cl.GateBatch(engine.NAND, a, b)
	done()
	if err != nil {
		return nil, err
	}
	return func() error { return checkBools(id.sk, out, want) }, nil
}

func (st *stack) instance(clients int, op opFunc) *instance {
	return &instance{clients: clients, op: op, stats: st.srv.Stats, close: st.close}
}

// serve_gates_I: four warm sessions with distinct keys behind router and
// server; each client owns a disjoint share of the sessions and visits
// them round-robin with 4-pair NAND requests.
func setupServeGates(e env) (*instance, error) {
	const sessions, pairs = 4, 4
	rng := rand.New(rand.NewSource(e.seed))
	st, err := newStack(server.Config{}, false, e.tr)
	if err != nil {
		return nil, err
	}
	ids := newIdentities(rng, e, st, sessions, 16)
	for _, id := range ids {
		if err := id.cl.RegisterKey(id.ek); err != nil {
			st.close()
			return nil, fmt.Errorf("register %s: %w", id.cl.ClientID(), err)
		}
		if err := verified(id.nandOver(nil, 0, pairs)); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	clients := loadClients(e)
	op := func(c, i int) (func() error, error) {
		owned := (sessions - c + clients - 1) / clients // sessions c, c+clients, ...
		return ids[c+(i%owned)*clients].nandOver(e.tr, i/owned, pairs)
	}
	return st.instance(clients, op), nil
}

// session_churn_I: four identities take turns uploading their key to a
// disk-backed server that keeps two sessions warm, each upload followed by
// one NAND that must decrypt correctly.
func setupSessionChurn(e env) (*instance, error) {
	const identities = 4
	rng := rand.New(rand.NewSource(e.seed))
	st, err := newStack(server.Config{MaxSessions: 2}, true, e.tr)
	if err != nil {
		return nil, err
	}
	ids := newIdentities(rng, e, st, identities, 8)
	op := func(_, i int) (func() error, error) {
		id := ids[i%identities]
		done := e.tr.start("client.RegisterKey")
		err := id.cl.RegisterKey(id.ek)
		done()
		if err != nil {
			return nil, err
		}
		return id.nandOver(e.tr, i/identities, 1)
	}
	// Warm up with one full turn of the identities. An upload allocates
	// 770 MB and the heap needs about eight of them to reach its steady
	// size; until then an op takes up to twice as long, faulting pages in.
	// One turn in each of a run's set-up passes gets there, and leaves the
	// store evicting: the third and fourth identity are warm when the
	// window opens and op 0 uploads the first again.
	for i := 0; i < identities; i++ {
		if err := verified(op(0, i)); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return st.instance(1, op), nil
}
