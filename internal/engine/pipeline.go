package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tfhe"
)

// StreamingEngine is the software mirror of the Strix streaming
// architecture (§IV) and the one executor of the operation vocabulary
// (Gates and LUT; ops.go), with its two levels of
// batching. Level 1: workers, the TvLP cores, each run a tile of
// consecutive items start to finish — prepare (linear op, modswitch,
// initial rotation) → blind rotate → sample extract → keyswitch, the
// fused §IV-C handoff — sharing the operation's encoded test vector.
// Level 2: the tile, the core batch, takes each CMux step together
// (tfhe.Evaluator.BlindRotateTile: one bsk_i fetch, many accumulators)
// and is keyswitched together (KeySwitchTile: each key row read once
// across the tile's outputs). Every phase runs the sequential evaluator's
// computation in its per-ciphertext order, so results are bitwise
// identical to sequential evaluation for any worker count or tile size.
// The engine is a handle on a key set and owns no worker: its operations,
// concurrent ones too, run on workers the process's pool lends them.
type StreamingEngine struct {
	*base
	width   int  // W: the workers an operation alone splits across
	claimed bool // a handle from On: its workers run on CPUs claimed ahead
}

// base is what an engine shares with the handles On returns: the keys,
// what derives from them, and the counters.
type base struct {
	keys    tfhe.EvaluationKeys
	signTV  tfhe.GLWECiphertext // shared read-only by every gate bootstrap
	tileCap int                 // most ciphertexts a tile may hold (see tileBudgetBytes)

	mu       sync.Mutex // guards counters, never held across an operation
	counters tfhe.OpCounters
}

// StreamConfig sizes the streaming engine. The tile size is not
// configured: it is min(⌈items/w⌉, cap) — every free CPU busy first, the
// key amortised second — with w = RotateWorkers for an operation alone in
// the process (see reserve) and cap derived from the parameter set
// (tileBudgetBytes).
type StreamConfig struct {
	// RotateWorkers is the engine's width: the tiles an operation alone
	// runs at once. 0 means runtime.GOMAXPROCS(0): the CPUs the process
	// may use; workers beyond them would only be time-sliced.
	RotateWorkers int
}

// pool is the process's one set of workers and its CPU budget, shared by
// every StreamingEngine: held counts the CPUs in use, the workers lent to
// the operations running now and the CPUs claimed ahead (Claim), and idle
// stacks the workers not lent by parameter shape (poolKey). A worker holds
// no key, so an idle one keeps no session's key alive.
var pool = struct {
	sync.Mutex
	held int
	idle map[tfhe.Params][]*worker
}{idle: make(map[tfhe.Params][]*worker)}

// poolKey is the part of a parameter set a worker reads, shapes and gadgets:
// a NaN noise field would make a whole Params unequal to itself.
func poolKey(p tfhe.Params) tfhe.Params {
	p.Name, p.Security, p.LWEStdDev, p.GLWEStdDev = "", 0, 0, 0
	return p
}

// reserve sizes an n-item operation's tiles and lends it a worker per
// tile it may run at once, the most recently returned first. Alone, it
// splits across all W of its width; behind others, only across the CPUs
// they leave free (at least one), since a worker beyond them would be
// time-sliced against theirs: its items grow the tiles instead, sharing
// their key passes.
//
// A handle from On splits across its claimed CPUs instead, and its
// workers count against the budget only through the claim.
func (s *StreamingEngine) reserve(n int) (size int, ws []*worker) {
	key := poolKey(s.keys.Params)
	pool.Lock()
	w := s.width
	if pool.held > 0 && !s.claimed {
		w = max(1, min(w, runtime.GOMAXPROCS(0)-pool.held))
	}
	size = min((n+w-1)/w, s.tileCap)
	slots := min(s.width, (n+size-1)/size)
	if !s.claimed {
		pool.held += slots
	}
	idle := pool.idle[key]
	k := max(0, len(idle)-slots)
	ws = append(ws, idle[k:]...)
	pool.idle[key] = idle[:k]
	pool.Unlock()
	for len(ws) < slots {
		ws = append(ws, &worker{ev: tfhe.NewEvaluator(tfhe.EvaluationKeys{Params: key})})
	}
	return size, ws
}

// release moves the lent workers' counters to the engine and returns the
// workers to the pool.
func (s *StreamingEngine) release(ws []*worker) {
	s.mu.Lock()
	for _, w := range ws {
		s.counters.Add(w.ev.Counters)
		w.ev.Counters.Reset()
	}
	s.mu.Unlock()
	key := poolKey(s.keys.Params)
	pool.Lock()
	if !s.claimed {
		pool.held -= len(ws)
	}
	pool.idle[key] = append(pool.idle[key], ws...)
	pool.Unlock()
}

// Claim takes CPUs from the pool's budget for operations the caller will
// run on them through On: as many as are free, up to most, but at least
// least even when fewer are free. It returns how many it took; Unclaim
// gives them back once those operations have returned.
func Claim(least, most int) int {
	pool.Lock()
	defer pool.Unlock()
	n := min(most, max(least, runtime.GOMAXPROCS(0)-pool.held))
	pool.held += n
	return n
}

// Unclaim returns n CPUs taken by Claim to the pool's budget.
func Unclaim(n int) {
	pool.Lock()
	pool.held -= n
	pool.Unlock()
}

// On returns a handle on the engine's keys and counters whose operations
// run on cpus CPUs the caller has claimed (Claim): each splits across at
// most that many workers, as if alone in the process, however many others
// hold.
func (s *StreamingEngine) On(cpus int) *StreamingEngine {
	return &StreamingEngine{base: s.base, width: max(1, min(cpus, s.width)), claimed: true}
}

// tileBudgetBytes bounds a tile's working set in the rotate loop — its
// accumulators plus the one GGSW being applied — so that it stays
// cache-resident while the key streams past. At set I (8 KB accumulators,
// 64 KB GGSW) that is 8 ciphertexts; the large-N sets run tiles of one.
const tileBudgetBytes = 128 << 10

// worker is one streaming core: a keyless evaluator (scratch, counters)
// and the slots of its tile, reused by every later tile of any engine the
// way Strix keeps its accumulators in the local scratchpad (§V-B).
type worker struct {
	ev    *tfhe.Evaluator
	items []int                 // the tile's bootstrapped items, by slot
	ms    []tfhe.ModSwitched    // their rotation amounts
	acc   []tfhe.GLWECiphertext // their accumulators
	ks    []tfhe.LWECiphertext  // their outputs, gathered for the keyswitch
}

// NewStreaming builds a streaming engine over the evaluation keys, which
// the pool's workers read, a tile at a time, and never keep.
func NewStreaming(ek tfhe.EvaluationKeys, cfg StreamConfig) *StreamingEngine {
	w := cfg.RotateWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := ek.Params
	accBytes := int64(p.K+1) * int64(p.N) * 4
	s := &StreamingEngine{
		base: &base{
			keys:    ek,
			tileCap: int(max(1, (tileBudgetBytes-ek.BSKBytes()/int64(p.SmallN))/accBytes)),
		},
		width: w,
	}
	// The sign test vector is a constant of the parameter set: encode it
	// once, not once per gate.
	s.signTV = s.encoder().SignTestVector()
	return s
}

// exec runs the items of one operation, split into tiles of consecutive
// items (sized by reserve) that the lent workers claim in turn: the
// caller's goroutine runs the first, and as many others join as there are
// tiles for them, so a tile beyond the free CPUs runs once one frees up.
// out holds item i's k outputs at [i·k, (i+1)·k). The workers go back once
// every goroutine is done, even when the caller's own tile panics.
func (s *StreamingEngine) exec(p op) []tfhe.LWECiphertext {
	out := make([]tfhe.LWECiphertext, p.n*p.k)
	if p.n == 0 {
		return out
	}
	size, ws := s.reserve(p.n)
	defer s.release(ws)
	var next atomic.Int64
	run := func(w *worker) {
		for {
			lo := int(next.Add(1)-1) * size
			if lo >= p.n {
				return
			}
			w.tile(s.keys, p, out, lo, min(lo+size, p.n))
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(ws[0])
	return out
}

// tile runs items [lo, hi) of p through the four phases under the keys
// ek, writing their outputs into out.
func (w *worker) tile(ek tfhe.EvaluationKeys, p op, out []tfhe.LWECiphertext, lo, hi int) {
	ev := w.ev
	// Prepare: per-item linear op, modulus switch and initial rotation of
	// the shared test vector (Algorithm 1 lines 2–4). An item that needs
	// no PBS (the free NOT) is finished here.
	w.items, w.ks = w.items[:0], w.ks[:0]
	for i := lo; i < hi; i++ {
		ct, done := p.prepare(ev, i)
		if done {
			out[i*p.k] = ct
			continue
		}
		j := len(w.items)
		w.items = append(w.items, i)
		if j == len(w.acc) {
			w.ms = append(w.ms, tfhe.ModSwitched{A: make([]int, ev.Params.SmallN)})
			w.acc = append(w.acc, tfhe.NewGLWECiphertext(ev.Params.K, ev.Params.N))
		}
		w.ms[j] = ev.ModSwitchLWETo(w.ms[j].A, ct)
		ev.BlindRotateInitTo(w.acc[j], p.testVec, w.ms[j])
	}
	m := len(w.items)
	if m == 0 {
		return
	}
	// Rotate: the n CMux iterations (lines 5–12), each applied across the
	// whole tile before the next GGSW is fetched.
	ev.BlindRotateTile(ek.BSK, w.acc[:m], w.ms[:m])
	// Extract (line 13) each accumulator into its item's outputs, gathered
	// past any NOT that split the tile.
	for j, i := range w.items {
		outs := out[i*p.k : (i+1)*p.k]
		p.extract(ev, w.acc[j], outs)
		w.ks = append(w.ks, outs...)
	}
	// Keyswitch (Algorithm 2, the §IV-C handoff): the whole tile at once,
	// written back to the items' slots.
	ev.KeySwitchTile(ek.KSK, w.ks)
	for j, i := range w.items {
		copy(out[i*p.k:(i+1)*p.k], w.ks[j*p.k:(j+1)*p.k])
	}
	clear(w.ks) // the scratch must not keep the caller's outputs alive
}
