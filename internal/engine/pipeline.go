package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tfhe"
)

// StreamingEngine is the software mirror of the Strix streaming
// architecture (§IV) and the one executor of the operation vocabulary
// (Gates, LUT, MultiLUT, Bootstrap; ops.go), with its two levels of
// batching. Level 1: W workers, the TvLP cores, each run a tile of
// consecutive items start to finish — prepare (linear op, modswitch,
// initial rotation) → blind rotate → sample extract → keyswitch, the
// fused §IV-C handoff — sharing the operation's encoded test vector.
// Level 2: the tile, the core batch, takes each CMux step together
// (tfhe.Evaluator.BlindRotateTile: one bsk_i fetch, many accumulators)
// and is keyswitched together (KeySwitchTile: each key row read once
// across the tile's outputs). Every phase runs the sequential evaluator's
// computation in its per-ciphertext order, so results are bitwise
// identical to sequential evaluation for any worker count or tile size.
type StreamingEngine struct {
	mu      sync.Mutex // serializes operations
	params  tfhe.Params
	signTV  tfhe.GLWECiphertext // shared read-only by every gate bootstrap
	workers []worker
	tileCap int // most ciphertexts a tile may hold (see tileBudgetBytes)
}

// StreamConfig sizes the streaming engine. The tile size is not
// configured: it is min(⌈items/w⌉, cap) — every free CPU busy first, the
// key amortised second — with w = RotateWorkers for an operation alone in
// the process (see reserve) and cap derived from the parameter set
// (tileBudgetBytes).
type StreamConfig struct {
	// RotateWorkers is the worker count: how many tiles run at once. 0
	// means runtime.GOMAXPROCS(0): the CPUs the process may use; workers
	// beyond them would only be time-sliced.
	RotateWorkers int
}

// cpus is the CPU budget all StreamingEngines share: held counts the
// worker slots, one per goroutine, of the operations running now.
var cpus struct {
	sync.Mutex
	held int
}

// reserve sizes an n-item operation's tiles and takes a slot per worker it
// will run, for release to give back. Alone, it splits across all W
// workers; behind others, only across the CPUs they leave free (at least
// one), since a worker beyond them would be time-sliced against theirs:
// its items grow the tiles instead, sharing their key passes.
func (s *StreamingEngine) reserve(n int) (size, slots int) {
	cpus.Lock()
	defer cpus.Unlock()
	w := len(s.workers)
	if cpus.held > 0 {
		w = max(1, min(w, runtime.GOMAXPROCS(0)-cpus.held))
	}
	size = min((n+w-1)/w, s.tileCap)
	slots = min(len(s.workers), (n+size-1)/size)
	cpus.held += slots
	return size, slots
}

// release gives back the slots reserve took.
func release(slots int) {
	cpus.Lock()
	cpus.held -= slots
	cpus.Unlock()
}

// tileBudgetBytes bounds a tile's working set in the rotate loop — its
// accumulators plus the one GGSW being applied — so that it stays
// cache-resident while the key streams past. At set I (8 KB accumulators,
// 64 KB GGSW) that is 8 ciphertexts; the large-N sets run tiles of one.
const tileBudgetBytes = 128 << 10

// worker is one streaming core: a private evaluator (scratch, counters)
// and the slots of its tile, reused by every later tile the way Strix
// keeps its accumulators in the local scratchpad (§V-B).
type worker struct {
	ev    *tfhe.Evaluator
	items []int                 // the tile's bootstrapped items, by slot
	ms    []tfhe.ModSwitched    // their rotation amounts
	acc   []tfhe.GLWECiphertext // their accumulators
	ks    []tfhe.LWECiphertext  // their outputs, gathered for the keyswitch
}

// NewStreaming builds a streaming engine over the evaluation keys, which
// every worker shares read-only.
func NewStreaming(ek tfhe.EvaluationKeys, cfg StreamConfig) *StreamingEngine {
	w := cfg.RotateWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := ek.Params
	accBytes := int64(p.K+1) * int64(p.N) * 4
	s := &StreamingEngine{
		params:  p,
		workers: make([]worker, w),
		tileCap: int(max(1, (tileBudgetBytes-ek.BSKBytes()/int64(p.SmallN))/accBytes)),
	}
	for i := range s.workers {
		s.workers[i].ev = tfhe.NewEvaluator(ek)
	}
	// The sign test vector is a constant of the parameter set: encode it
	// once, not once per gate.
	s.signTV = s.workers[0].ev.SignTestVector()
	return s
}

// exec runs the items of one operation, split into tiles of consecutive
// items (sized by reserve) that the workers claim in turn: the caller's
// goroutine is worker 0, and as many others join as there are tiles for
// them, so a tile beyond the free CPUs runs once one frees up. out holds
// item i's k outputs at [i·k, (i+1)·k).
func (s *StreamingEngine) exec(p op) []tfhe.LWECiphertext {
	out := make([]tfhe.LWECiphertext, p.n*p.k)
	if p.n == 0 {
		return out
	}
	size, slots := s.reserve(p.n)
	defer release(slots)
	var next atomic.Int64
	run := func(w *worker) {
		for {
			lo := int(next.Add(1)-1) * size
			if lo >= p.n {
				return
			}
			w.tile(p, out, lo, min(lo+size, p.n))
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(&s.workers[i])
		}()
	}
	run(&s.workers[0])
	wg.Wait()
	return out
}

// tile runs items [lo, hi) of p through the four phases, writing their
// outputs into out.
func (w *worker) tile(p op, out []tfhe.LWECiphertext, lo, hi int) {
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
	ev.BlindRotateTile(w.acc[:m], w.ms[:m])
	// Extract (line 13) each accumulator into its item's outputs, gathered
	// past any NOT that split the tile.
	for j, i := range w.items {
		outs := out[i*p.k : (i+1)*p.k]
		p.extract(ev, w.acc[j], outs)
		w.ks = append(w.ks, outs...)
	}
	if p.keyswitch {
		// Keyswitch (Algorithm 2, the §IV-C handoff): the whole tile at
		// once, written back to the items' slots.
		ev.KeySwitchTile(w.ks)
		for j, i := range w.items {
			copy(out[i*p.k:(i+1)*p.k], w.ks[j*p.k:(j+1)*p.k])
		}
	}
	clear(w.ks) // the scratch must not keep the caller's outputs alive
}
