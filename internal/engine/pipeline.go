package engine

import (
	"runtime"
	"sync"

	"repro/internal/tfhe"
)

// StreamingEngine is the software mirror of the Strix streaming
// architecture (§IV) and the one executor of the Ops vocabulary: instead
// of assigning one worker a whole PBS, ciphertexts flow through a
// channel-connected pipeline of specialized stages,
//
//	prepare (linear op + modswitch + init rotation; assembles tiles)
//	  → blind rotate (n CMux steps, key-major over a tile; the dominant
//	    stage, a worker pool)
//	  → sample extract
//	  → keyswitch (fused §IV-C handoff, key-major over the same tile; a
//	    worker pool)
//
// with two levels of batching. Level 1 batches across the stream: every
// stage works on a different tile at the same time, and stage setup (the
// encoded test vector or LUT, built once in prepare) is shared by the
// whole stream. Level 2 is the tile, the core-level batch: TFHE cannot
// pack, so the 49 MB evaluation key is amortised by letting one fetch
// serve many ciphertexts. A tile takes each CMux step together
// (tfhe.Evaluator.BlindRotateTile: one bsk_i fetch, many accumulators)
// and is keyswitched together (KeySwitchTile: each key row read once
// across the tile's outputs). The PBS→KS handoff is fused into the
// pipeline, so extraction output never surfaces to the caller.
//
// Every stage runs the exact computation of the sequential
// tfhe.Evaluator's corresponding step, in the same per-ciphertext order,
// so results are bitwise identical to sequential evaluation for any
// stage, worker or tile configuration.
type StreamingEngine struct {
	Ops

	prep *tfhe.Evaluator   // prepare-stage evaluator
	rot  []*tfhe.Evaluator // blind-rotate stage worker pool
	ext  *tfhe.Evaluator   // sample-extract stage evaluator
	ks   []*tfhe.Evaluator // keyswitch stage worker pool

	tileCap int // most ciphertexts a tile may hold (see tileBudgetBytes)
	// free holds spent tiles for the prepare stage to refill, the way Strix
	// keeps its accumulators in the local scratchpad (§V-B) instead of
	// allocating 12 KB per PBS at set I. Four per rotate worker is about
	// what a full pipeline has in flight (two queued ahead of each worker,
	// one in its hands, and the extract stage's backlog); a tile that finds
	// the list full is left to the collector.
	free chan tile
}

// StreamConfig tunes the streaming pipeline's stage widths. The tile size
// is not configured: it is min(⌈items/RotateWorkers⌉, cap) — every rotate
// worker busy first, the key amortised second — with cap derived from the
// parameter set (tileBudgetBytes).
type StreamConfig struct {
	// RotateWorkers is the worker count of the blind-rotate stage, the
	// pipeline's dominant stage. 0 means runtime.GOMAXPROCS(0): the CPUs
	// the process may use; workers beyond them would only be time-sliced.
	RotateWorkers int
	// KSWorkers is the worker count of the keyswitch stage. 0 picks
	// RotateWorkers: a keyswitch job is a whole tile (milliseconds), and
	// the rotate workers finish the tiles of a short stream together, so
	// with fewer keyswitch workers the last tiles queue behind one another
	// (one worker against two costs 2–6 ms of a 40 ms set-I op of eight
	// gates on two CPUs: BenchmarkStreamGates).
	KSWorkers int
}

// tileBudgetBytes bounds a tile's working set in the rotate loop — its
// accumulators plus the one GGSW being applied — so that it stays
// cache-resident while the key streams past. At set I (8 KB accumulators,
// 64 KB GGSW) that is 8 ciphertexts; the large-N sets run tiles of one.
const tileBudgetBytes = 128 << 10

// NewStreaming builds a streaming engine over the evaluation keys. The
// keys are shared read-only by every stage worker; each worker owns a
// private evaluator for scratch and counters.
func NewStreaming(ek tfhe.EvaluationKeys, cfg StreamConfig) *StreamingEngine {
	rw := cfg.RotateWorkers
	if rw <= 0 {
		rw = runtime.GOMAXPROCS(0)
	}
	kw := cfg.KSWorkers
	if kw <= 0 {
		kw = rw
	}
	p := ek.Params
	accBytes := int64(p.K+1) * int64(p.N) * 4
	s := &StreamingEngine{
		prep:    tfhe.NewEvaluator(ek),
		rot:     make([]*tfhe.Evaluator, rw),
		ext:     tfhe.NewEvaluator(ek),
		ks:      make([]*tfhe.Evaluator, kw),
		tileCap: int(max(1, (tileBudgetBytes-ek.BSKBytes()/int64(p.SmallN))/accBytes)),
		free:    make(chan tile, 4*rw),
	}
	for i := range s.rot {
		s.rot[i] = tfhe.NewEvaluator(ek)
	}
	for i := range s.ks {
		s.ks[i] = tfhe.NewEvaluator(ek)
	}
	s.Ops = newOps(ek.Params, append(append([]*tfhe.Evaluator{s.prep, s.ext}, s.rot...), s.ks...), s.exec)
	return s
}

// tile is what flows between the stages: a run of consecutive items, from
// lo on, that share one pass over the keys. Outputs land in the items' own
// slots of the stream's result, so a tile carries none. It owns its
// buffers — each ms[j].A and acc[j], allocated once, up to tileCap of
// them — and exactly one stage holds it at a time: prepare fills it,
// a rotate worker rotates it in place, and extract, the last reader of
// both, puts it on the engine's free list; the keyswitch stage gets the
// output slots only.
type tile struct {
	lo  int
	ms  []tfhe.ModSwitched
	acc []tfhe.GLWECiphertext
}

// emptyTile returns a tile for the items from lo on: a spent one with its
// buffers when the free list has one, a new one otherwise.
func (s *StreamingEngine) emptyTile(lo int) tile {
	select {
	case t := <-s.free:
		return tile{lo: lo, ms: t.ms[:0], acc: t.acc[:0]}
	default:
		return tile{lo: lo, ms: make([]tfhe.ModSwitched, 0, s.tileCap), acc: make([]tfhe.GLWECiphertext, 0, s.tileCap)}
	}
}

// add appends ct, modulus-switched, and its initial accumulator to the
// tile, into the buffers slot j already has or new ones.
func (t *tile) add(ev *tfhe.Evaluator, testVec tfhe.GLWECiphertext, ct tfhe.LWECiphertext) {
	j := len(t.acc)
	t.ms, t.acc = t.ms[:j+1], t.acc[:j+1]
	if t.ms[j].A == nil {
		t.ms[j].A = make([]int, ev.Params.SmallN)
		t.acc[j] = tfhe.NewGLWECiphertext(ev.Params.K, ev.Params.N)
	}
	t.ms[j] = ev.ModSwitchLWETo(t.ms[j].A, ct)
	ev.BlindRotateInitTo(t.acc[j], testVec, t.ms[j])
}

// exec pushes the items of one operation through the staged pipeline.
// p.prepare runs in the first stage on the prepare evaluator, p.extract
// in the third on the extract-stage evaluator, and p.testVec is shared by
// the whole stream. When p.keyswitch is false the fused keyswitch stage
// is bypassed and outputs stay at dimension k·N.
func (s *StreamingEngine) exec(p op) []tfhe.LWECiphertext {
	out := make([]tfhe.LWECiphertext, p.n*p.k)
	size := min((p.n+len(s.rot)-1)/len(s.rot), s.tileCap)
	// Two tiles of buffer per rotate worker between stages: enough slack
	// that a fast stage never stalls on a momentarily busy neighbour.
	depth := 2 * len(s.rot)
	toRotate := make(chan tile, depth)
	rotated := make(chan tile, depth)
	extracted := make(chan []tfhe.LWECiphertext, depth)

	// Stage 1 — prepare: per-item linear op, modulus switch, initial
	// rotation of the shared test vector (Algorithm 1 lines 2–4). It emits
	// a tile when it is full, when an item that needs no PBS (the free
	// NOT) interrupts the run, or when the stream ends.
	go func() {
		defer close(toRotate)
		var t tile
		flush := func() {
			if len(t.acc) > 0 {
				toRotate <- t
				t = tile{}
			}
		}
		for i := 0; i < p.n; i++ {
			ct, done := p.prepare(s.prep, i)
			if done {
				flush()
				out[i*p.k] = ct
				continue
			}
			if t.acc == nil {
				t = s.emptyTile(i)
			}
			t.add(s.prep, p.testVec, ct)
			if len(t.acc) == size {
				flush()
			}
		}
		flush()
	}()

	// Stage 2 — blind rotate: the n CMux iterations (lines 5–12), each
	// applied across the whole tile before the next GGSW is fetched.
	var rotWG sync.WaitGroup
	for _, ev := range s.rot {
		rotWG.Add(1)
		go func(ev *tfhe.Evaluator) {
			defer rotWG.Done()
			for t := range toRotate {
				ev.BlindRotateTile(t.acc, t.ms)
				rotated <- t
			}
		}(ev)
	}
	go func() {
		rotWG.Wait()
		close(rotated)
	}()

	// Stage 3 — sample extract (line 13), fanning each accumulator out
	// into its item's outputs; the tile is spent after it.
	go func() {
		defer close(extracted)
		for t := range rotated {
			outs := out[t.lo*p.k : (t.lo+len(t.acc))*p.k]
			for j, acc := range t.acc {
				p.extract(s.ext, acc, outs[j*p.k:(j+1)*p.k])
			}
			select {
			case s.free <- t:
			default:
			}
			if p.keyswitch {
				extracted <- outs
			}
		}
	}()

	// Stage 4 — fused keyswitch (Algorithm 2, the §IV-C handoff): a tile's
	// extracted ciphertexts are keyswitched in place, together. A KS-less
	// stream (Bootstrap) sends nothing here; the closed channel is then
	// the barrier that orders the extract stage's writes before the return.
	var ksWG sync.WaitGroup
	for _, ev := range s.ks {
		ksWG.Add(1)
		go func(ev *tfhe.Evaluator) {
			defer ksWG.Done()
			for outs := range extracted {
				ev.KeySwitchTile(outs)
			}
		}(ev)
	}
	ksWG.Wait()
	return out
}
