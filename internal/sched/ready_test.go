package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tfhe"
)

// Execute dispatches by readiness over the process's worker pool. These
// tests pin what that may and may not change: the order of completions
// never reaches the outputs, dispatches go out highest rank first, as many
// at once as the pool has free CPUs, and a failing dispatch is reported
// only once every other one in flight has returned.

// withProcs sets GOMAXPROCS, the CPU budget Execute claims from, to n
// until the test ends.
func withProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// adder4 builds the 4-bit ripple-carry adder of the adder4_sched_I
// workload and returns the wires of x0∧y0 and x1⊕y1, its two rank-7
// nodes.
func adder4(t *testing.T) (c *Circuit, g0, p1 Wire) {
	b := NewBuilder()
	x, y := b.Inputs(4), b.Inputs(4)
	var carry Wire
	for i := range 4 {
		p := b.Gate(engine.XOR, x[i], y[i])
		g := b.Gate(engine.AND, x[i], y[i])
		if i == 0 {
			b.Output(p)
			carry, g0 = g, g
			continue
		}
		if i == 1 {
			p1 = p
		}
		b.Output(b.Gate(engine.XOR, p, carry))
		carry = b.Gate(engine.OR, g, b.Gate(engine.AND, p, carry))
	}
	b.Output(carry)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, g0, p1
}

// placeholders returns n zero ciphertexts: what a fake executor that
// computes nothing hands back.
func placeholders(n int) []tfhe.LWECiphertext { return make([]tfhe.LWECiphertext, n) }

// fakeExec is an Executor that computes nothing: gate hands each
// dispatch's nodes to a callback and returns placeholders.
type fakeExec struct {
	gate func(d Dispatch) error
}

func (f fakeExec) concurrentCalls() {}

func (f fakeExec) Params() tfhe.Params { return tfhe.ParamsTest }

func (f fakeExec) Gate(d Dispatch, a, _ []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return placeholders(len(a)), f.gate(d)
}

func (f fakeExec) LUT(_ Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	return placeholders(len(in)), nil
}

func (f fakeExec) MultiLUT(d Dispatch, in []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	return regroupTest(placeholders(len(in)*len(d.Tables)), len(d.Tables)), nil
}

// regroupTest splits a flat slice into groups of k.
func regroupTest(flat []tfhe.LWECiphertext, k int) [][]tfhe.LWECiphertext {
	out := make([][]tfhe.LWECiphertext, len(flat)/k)
	for g := range out {
		out[g] = flat[g*k : (g+1)*k]
	}
	return out
}

// checkQuiet checks that the pool has every CPU free and that the
// goroutine count falls back to base: nothing Execute started is left.
func checkQuiet(t *testing.T, base int) {
	t.Helper()
	if n := engine.Claim(0, runtime.GOMAXPROCS(0)); n != runtime.GOMAXPROCS(0) {
		t.Errorf("the pool has %d of %d CPUs free after Execute returned", n, runtime.GOMAXPROCS(0))
	} else {
		engine.Unclaim(n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Execute returned, %d before", n, base)
	}
}

// TestFailureWaitsForDispatchesInFlight: when one dispatch errors or
// panics while another is still running, Execute returns only after that
// one has, with the error, or with the panic raised again in the caller's
// goroutine. The circuit's first two dispatches run at once on two CPUs:
// the rank-2 OR, then the rank-1 AND, which fails.
func TestFailureWaitsForDispatchesInFlight(t *testing.T) {
	withProcs(t, 2)
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	and := b.Gate(engine.AND, x, y)
	or := b.Gate(engine.OR, x, y)
	b.Output(and, b.Gate(engine.XOR, or, x))
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	errFail := errors.New("dispatch failed")
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			base := runtime.NumGoroutine()
			started := make(chan struct{})
			var mu sync.Mutex
			finished := false
			ex := fakeExec{gate: func(d Dispatch) error {
				switch d.Nodes[0] {
				case or:
					select {
					case <-started:
					case <-time.After(5 * time.Second):
						t.Error("the AND dispatch never started beside the OR")
					}
					time.Sleep(50 * time.Millisecond)
					mu.Lock()
					finished = true
					mu.Unlock()
				case and:
					close(started)
					if mode == "panic" {
						panic("dispatch panicked")
					}
					return errFail
				}
				return nil
			}}
			var got error
			recovered := func() (p any) {
				defer func() { p = recover() }()
				_, got = Execute(circ, sch, placeholders(2), ex)
				return nil
			}()
			mu.Lock()
			if !finished {
				t.Error("Execute returned while a dispatch was still in flight")
			}
			mu.Unlock()
			if mode == "panic" && recovered == nil {
				t.Error("a dispatch's panic did not reach the caller")
			}
			if mode == "error" && !errors.Is(got, errFail) {
				t.Errorf("Execute returned %v, want the failing dispatch's error", got)
			}
			checkQuiet(t, base)
		})
	}
}

// TestRunnerPanicReachesCaller: an engine operation that panics on a
// wrong-dimension input does so in a dispatch's goroutine; Execute raises
// it again in the caller's, where it is recoverable, and leaves no worker
// lent and no goroutine behind.
func TestRunnerPanicReachesCaller(t *testing.T) {
	withProcs(t, 2)
	circ, _, _ := adder4(t)
	sch, err := Compile(circ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{})}
	in := make([]tfhe.LWECiphertext, 8)
	for i := range in {
		in[i] = tfhe.NewLWECiphertext(testEK.Params.SmallN + 1)
	}
	base := runtime.NumGoroutine()
	recovered := func() (p any) {
		defer func() { p = recover() }()
		_, _ = Execute(circ, sch, in, r)
		return nil
	}()
	if recovered == nil {
		t.Fatal("a wrong-dimension input did not panic in the caller")
	}
	checkQuiet(t, base)
}

// delayed wraps an executor and holds each dispatch for a random delay of
// up to 3 ms, drawn from a seeded source, so that dispatches in flight
// together complete in an order of the delays' choosing.
type delayed struct {
	Executor
	mu  sync.Mutex
	rng *rand.Rand
}

func (d *delayed) concurrentCalls() {}

func (d *delayed) hold() {
	d.mu.Lock()
	dt := time.Duration(d.rng.Intn(3000)) * time.Microsecond
	d.mu.Unlock()
	time.Sleep(dt)
}

func (d *delayed) Gate(x Dispatch, a, b []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	d.hold()
	return d.Executor.Gate(x, a, b)
}

func (d *delayed) LUT(x Dispatch, in []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error) {
	d.hold()
	return d.Executor.LUT(x, in)
}

func (d *delayed) MultiLUT(x Dispatch, in []tfhe.LWECiphertext) ([][]tfhe.LWECiphertext, error) {
	d.hold()
	return d.Executor.MultiLUT(x, in)
}

// TestCompletionOrderDoesNotMatter runs random typed circuits (gates,
// LUTs, multi-value LUTs) through an executor that delays each dispatch
// at random, on four CPUs: the outputs are bitwise those of an undelayed
// run of the same schedule, and, unoptimized, those of RunSequential.
func TestCompletionOrderDoesNotMatter(t *testing.T) {
	withProcs(t, 4)
	runner := &Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{})}
	ev := tfhe.NewEvaluator(testEK)
	for trial := range 4 {
		rng := rand.New(rand.NewSource(5200 + int64(trial)))
		tc := genTypedCircuit(rng, 10+rng.Intn(8))
		ins := tc.encryptInputs(rng)
		seq, err := RunSequential(tc.circ, ev, ins)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []OptConfig{{}, OptAll()} {
			sch, err := Compile(tc.circ, Config{Opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Execute(tc.circ, sch, ins, runner)
			if err != nil {
				t.Fatal(err)
			}
			ex := &delayed{Executor: runner, rng: rand.New(rand.NewSource(int64(trial)))}
			got, err := Execute(tc.circ, sch, ins, ex)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d optimized=%v", trial, opt.enabled())
			for i := range want {
				if !sameCT(got[i], want[i]) {
					t.Errorf("%s: output %d differs between the delayed and the undelayed run", label, i)
				}
				if !opt.enabled() && !sameCT(got[i], seq[i]) {
					t.Errorf("%s: output %d differs from RunSequential", label, i)
				}
			}
		}
	}
}

// TestDispatchByRank drives the adder through a fake executor on a fixed
// number of CPUs, deterministically: it lets one dispatch complete at a
// time, oldest first, and only once Execute has issued all it can. The
// dispatches issued in between must be the ready nodes of the highest
// rank that share one key, picked one group after another, the first
// exactly the two rank-7 nodes; and no more run at once than there are
// CPUs. An executor that does not take concurrent calls gets one dispatch
// at a time instead, each with every ready gate.
func TestDispatchByRank(t *testing.T) {
	for _, tc := range []struct {
		procs  int
		serial bool
	}{{1, false}, {2, false}, {2, true}} {
		t.Run(fmt.Sprintf("procs=%d serial=%v", tc.procs, tc.serial), func(t *testing.T) {
			withProcs(t, tc.procs)
			slots := tc.procs
			if tc.serial {
				slots = 1
			}
			circ, g0, p1 := adder4(t)
			sch, err := Compile(circ, Config{})
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(circ)

			var mu sync.Mutex
			var inflight []chan struct{}
			var issued [][]Wire
			acked := true // the last dispatch let go has returned
			most := 0
			ex := fakeExec{gate: func(d Dispatch) error {
				release := make(chan struct{})
				mu.Lock()
				issued = append(issued, d.Nodes)
				inflight = append(inflight, release)
				most = max(most, len(inflight))
				mu.Unlock()
				<-release
				mu.Lock()
				o.set(d.Nodes, done)
				acked = true
				mu.Unlock()
				return nil
			}}
			var exec Executor = ex
			if tc.serial {
				exec = struct{ Executor }{ex}
			}
			finished := make(chan error, 1)
			go func() {
				_, err := Execute(circ, sch, placeholders(8), exec)
				finished <- err
			}()
			checked, firstBatch := 0, [][]Wire(nil)
			deadline := time.Now().Add(5 * time.Second)
			for {
				select {
				case err := <-finished:
					if err != nil {
						t.Fatal(err)
					}
					// Dispatches issued together register in any order:
					// with one CPU, issue order is registration order.
					first := slices.ContainsFunc(firstBatch, func(d []Wire) bool { return slices.Equal(d, []Wire{g0, p1}) })
					if slots == 1 {
						first = len(issued) > 0 && slices.Equal(issued[0], []Wire{g0, p1})
					}
					if !first && !tc.serial {
						t.Errorf("dispatches %v, want the rank-7 nodes [%d %d] first", issued, g0, p1)
					}
					if most > slots {
						t.Errorf("%d dispatches in flight at once, want at most %d", most, slots)
					}
					return
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("Execute did not finish")
				}
				mu.Lock()
				// Settled: Execute has taken in the last completion and
				// has every CPU busy, or nothing left to issue.
				fresh := issued[checked:]
				ready := o.ready()
				if acked && len(inflight) > 0 && (len(inflight) == slots || len(ready) == countNodes(fresh)) {
					if want := o.picks(ready, len(fresh), tc.serial); !sameGroups(fresh, want) {
						t.Errorf("after %d dispatches Execute issued %v, want %v", checked, fresh, want)
					}
					if checked == 0 {
						firstBatch = fresh
					}
					for _, nodes := range fresh {
						o.set(nodes, running)
					}
					checked = len(issued)
					close(inflight[0])
					inflight, acked = inflight[1:], false
				}
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}

// countNodes counts the nodes of a list of dispatches.
func countNodes(ds [][]Wire) int {
	n := 0
	for _, d := range ds {
		n += len(d)
	}
	return n
}

// sameGroups reports whether two lists of dispatches hold the same node
// lists, in any order.
func sameGroups(a, b [][]Wire) bool {
	key := func(ds [][]Wire) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = fmt.Sprint(d)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// Oracle node states.
const (
	waiting = iota
	running
	done
)

// oracle tracks a gate circuit's PBS nodes from outside Execute, with its
// own ranks, to say which dispatches Execute should issue.
type oracle struct {
	c     *Circuit
	state []int
	deps  [][]Wire // the PBS nodes each node reads, through linear nodes
	rank  []int    // longest PBS path to an output, the node included
}

func newOracle(c *Circuit) *oracle {
	o := &oracle{c: c, state: make([]int, len(c.nodes)), deps: make([][]Wire, len(c.nodes)), rank: make([]int, len(c.nodes))}
	for i, n := range c.nodes {
		n.operands(func(w Wire) {
			switch c.nodes[w].kind {
			case kindInput:
			case kindLin:
				o.deps[i] = append(o.deps[i], o.deps[w]...)
			default:
				o.deps[i] = append(o.deps[i], w)
			}
		})
	}
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if c.nodes[i].kind == kindGate {
			o.rank[i]++
			for _, d := range o.deps[i] {
				o.rank[d] = max(o.rank[d], o.rank[i]+1)
			}
		}
	}
	return o
}

func (o *oracle) set(nodes []Wire, state int) {
	for _, w := range nodes {
		o.state[w] = state
	}
}

// ready lists, in build order, the gates not yet issued whose operands
// have resolved.
func (o *oracle) ready() []Wire {
	var r []Wire
	for i, n := range o.c.nodes {
		if n.kind != kindGate || o.state[i] != waiting {
			continue
		}
		ok := true
		for _, d := range o.deps[i] {
			ok = ok && o.state[d] == done
		}
		if ok {
			r = append(r, Wire(i))
		}
	}
	return r
}

// picks returns the first k dispatches rank-first order takes from the
// ready gates: each time, every remaining gate of the highest rank, or,
// for a serial executor, every ready gate.
func (o *oracle) picks(ready []Wire, k int, serial bool) [][]Wire {
	if serial {
		return [][]Wire{ready}[:k]
	}
	var out [][]Wire
	for range k {
		top := 0
		for _, w := range ready {
			top = max(top, o.rank[w])
		}
		var pick, rest []Wire
		for _, w := range ready {
			if o.rank[w] == top {
				pick = append(pick, w)
			} else {
				rest = append(rest, w)
			}
		}
		out, ready = append(out, pick), rest
	}
	return out
}
