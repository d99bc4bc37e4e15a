package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/fft"
	"repro/internal/poly"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// ladderConfig sizes the traced run's ladder: the parameter set of every
// rung, the second set of the rows named _III and _n2048, and how often a
// probe is repeated by the scale of what it times.
type ladderConfig struct {
	params, params3     tfhe.Params
	small, medium, slow int // repetitions of ns/µs-scale, ms-scale and second-scale probes
}

// probe is one timed row of the ladder. run takes one measurement in the
// row's unit; rate rows report the highest of their repetitions, time rows
// the lowest (see bestTime).
type probe struct {
	name string
	unit string
	reps int
	rate bool
	run  func() (float64, error)
}

// A probe is repeated in one process within a minute, where interference
// only ever adds time: a timed row reports its best repetition, the lowest
// time or the highest rate.
func bestTime(vals []float64) float64 { return slices.Min(vals) }
func bestRate(vals []float64) float64 { return slices.Max(vals) }

// units maps a time row's unit to its length.
var units = map[string]time.Duration{"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond}

// loopProbe is a time row whose repetition is n back-to-back calls of f,
// reported as the mean per call.
func loopProbe(name, unit string, reps, n int, f func()) probe {
	return probe{name: name, unit: unit, reps: reps, run: func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(t0)) / float64(n) / float64(units[unit]), nil
	}}
}

// callProbe is a millisecond row whose repetition is one call of f.
func callProbe(name string, reps int, f func() error) probe {
	return probe{name: name, unit: "ms", reps: reps, run: func() (float64, error) {
		t0 := time.Now()
		err := f()
		return ms(time.Since(t0)), err
	}}
}

// allocsPerCall counts heap allocations per call of f. Nothing else may be
// running: the ladder takes these counts before it starts any server.
func allocsPerCall(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// heapAllocMB returns the live heap after a collection.
func heapAllocMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakHeapDuring runs f while sampling the heap in use and returns the
// highest sample above the level f started from.
func peakHeapDuring(f func() error) (float64, error) {
	inuse := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	runtime.GC()
	base := inuse()
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		top := base
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak <- max(top, inuse())
				return
			case <-tick.C:
				top = max(top, inuse())
			}
		}
	}()
	err := f()
	close(stop)
	return float64(<-peak-base) / (1 << 20), err
}

// fftProbes returns the kernel rows for parameter set p under the given
// name suffix, and a function performing one call of each kernel.
func fftProbes(rng *rand.Rand, p tfhe.Params, suffix string, reps int) ([]probe, func()) {
	proc := fft.NewProcessor(p.N)
	dec := poly.NewDecomposer(p.PBSBaseLog, p.PBSLevel)
	src, dst := poly.New(p.N), poly.New(p.N)
	poly.Uniform(rng, src)
	fp, acc := proc.NewFourierPoly(), proc.NewFourierPoly()
	fdig := proc.NewFourierPolyBatch(p.PBSLevel)
	proc.ForwardTorusTo(fp, src)

	forward := func() { proc.ForwardTorusTo(fp, src) }
	inverse := func() { proc.InverseTo(dst, fp) }
	fwdDecompose := func() { proc.ForwardDecompose(fdig, dec, src) }
	mulAcc := func() { fft.MulAcc(acc, fdig[0], fp) }
	row := func(name string, n int, f func()) probe {
		return loopProbe("fft."+name+"_ns"+suffix, "ns", reps, n, f)
	}
	return []probe{
		row("forward", 200, forward),
		row("inverse", 200, inverse),
		row("fwd_decompose", 100, fwdDecompose),
		row("mulacc", 1000, mulAcc),
	}, func() { forward(); inverse(); fwdDecompose(); mulAcc() }
}

// nandCircuit is the one-level circuit the scheduler rung runs: k
// independent NAND gates over 2k inputs.
func nandCircuit(k int) (*sched.Circuit, error) {
	b := sched.NewBuilder()
	x, y := b.Inputs(k), b.Inputs(k)
	for i := 0; i < k; i++ {
		b.Output(b.Gate(engine.NAND, x[i], y[i]))
	}
	return b.Build()
}

func encodeLWEs(cts []tfhe.LWECiphertext) [][]byte {
	out := make([][]byte, len(cts))
	for i, ct := range cts {
		out[i] = wire.MarshalLWE(ct)
	}
	return out
}

// runLadder pushes one seeded 4-pair NAND batch, one 4-ciphertext NOT
// batch and one evaluation-key blob through every rung from the sequential
// evaluator to the routed service, times every layer below them through
// its public functions, and returns the per-layer metrics. Timed probes
// are taken round-robin, so that drift of the machine hits all rows alike.
// checks counts the rungs whose outputs were compared with the sequential
// evaluator's, failed those that differed.
func runLadder(cfg ladderConfig, seed int64, out io.Writer) (m map[string]metric, checks, failed int, err error) {
	p := cfg.params
	rng := rand.New(rand.NewSource(seed))
	m = map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Fixtures shared by the rungs.
	var keygen []float64
	var sk tfhe.SecretKeys
	var ek tfhe.EvaluationKeys
	for i := 0; i < cfg.slow; i++ {
		t0 := time.Now()
		sk, ek = tfhe.GenerateKeys(rng, p)
		keygen = append(keygen, time.Since(t0).Seconds())
	}
	set("tfhe.keygen_s", bestTime(keygen), "s")
	ev := tfhe.NewEvaluator(ek)
	pool := newBoolPool(rng, sk, 64)
	a64, b64, _ := pool.draw(0, 64)
	a8, b8 := a64[:8], b64[:8]
	a4, b4, want4 := pool.draw(0, 4)
	ref4 := make([]tfhe.LWECiphertext, 4)
	for i := range ref4 {
		ref4[i] = ev.NAND(a4[i], b4[i])
	}
	if err := checkBools(sk, ref4, want4); err != nil {
		return nil, 0, 0, fmt.Errorf("sequential rung: %w", err)
	}
	// rung checks a rung's outputs against the sequential evaluator's.
	rung := func(name string, got []tfhe.LWECiphertext, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		checks++
		if err := sameBits(got, ref4); err != nil {
			failed++
			fmt.Fprintf(out, "rung %s: %v\n", name, err)
		}
		return nil
	}

	// Kernel rows, and the counts that need a quiet process.
	fftI, fftCalls := fftProbes(rng, p, "", cfg.small)
	fft3, _ := fftProbes(rng, cfg.params3, "_n2048", cfg.small)
	probes := append(fftI, fft3[1], fft3[2])
	set("fft.allocs_per_call", allocsPerCall(100, fftCalls), "count")

	dec := poly.NewDecomposer(p.PBSBaseLog, p.PBSLevel)
	src, dst := poly.New(p.N), poly.New(p.N)
	poly.Uniform(rng, src)
	digits := make([][]int32, p.PBSLevel)
	for l := range digits {
		digits[l] = make([]int32, p.N)
	}
	probes = append(probes,
		loopProbe("poly.decompose_ns", "ns", cfg.small, 200, func() { dec.DecomposePolyTo(digits, src) }),
		loopProbe("poly.rotate_ns", "ns", cfg.small, 1000, func() { poly.MulByMonomialTo(dst, src, 123) }),
	)

	tv := ev.SignTestVector()
	ct := ev.NANDInput(a4[0], b4[0])
	ev.Counters.Reset()
	big := ev.Bootstrap(ct, tv)
	c := ev.Counters
	mulAccs := float64(c.VMAMuls) / float64(p.N/2)
	set("tfhe.fwd_fft_per_pbs", float64(c.ForwardFFTs), "count")
	set("tfhe.inv_fft_per_pbs", float64(c.InverseFFTs), "count")
	set("tfhe.mulacc_per_pbs", mulAccs, "count")
	switched := ev.ModSwitchLWE(ct)
	rotated := ev.BlindRotate(ct, tv)
	sk3, ek3 := tfhe.GenerateKeys(rng, cfg.params3)
	ev3 := tfhe.NewEvaluator(ek3)
	x3, y3 := sk3.EncryptBool(rng, true), sk3.EncryptBool(rng, false)
	probes = append(probes,
		loopProbe("tfhe.modswitch_us", "us", cfg.small, 100, func() { ev.ModSwitchLWE(ct) }),
		probe{name: "tfhe.cmux_us", unit: "us", reps: cfg.medium, run: func() (float64, error) {
			acc := ev.BlindRotateInit(tv, switched)
			t0 := time.Now()
			for i, rot := range switched.A {
				ev.CMuxAt(acc, i, rot|1) // |1: CMuxAt skips a zero rotation
			}
			return float64(time.Since(t0)) / float64(len(switched.A)) / float64(time.Microsecond), nil
		}},
		loopProbe("tfhe.blind_rotate_ms", "ms", cfg.medium, 1, func() { ev.BlindRotate(ct, tv) }),
		loopProbe("tfhe.extract_us", "us", cfg.small, 100, func() { ev.Extract(rotated) }),
		loopProbe("tfhe.keyswitch_ms", "ms", cfg.medium, 1, func() { ev.KeySwitch(big) }),
		loopProbe("tfhe.pbs_ms", "ms", cfg.medium, 1, func() { ev.Bootstrap(ct, tv) }),
		loopProbe("tfhe.gate_ms", "ms", cfg.medium, 1, func() { ev.NAND(a4[0], b4[0]) }),
		loopProbe("tfhe.gate_ms_III", "ms", cfg.medium, 1, func() { ev3.NAND(x3, y3) }),
		loopProbe("tfhe.gate4_ms", "ms", cfg.medium, 1, func() {
			for i := range a4 {
				ev.NAND(a4[i], b4[i])
			}
		}),
	)

	// Engine rungs.
	t0 := time.Now()
	se := engine.NewStreaming(ek, engine.StreamConfig{})
	set("engine.new_streaming_ms", ms(time.Since(t0)), "ms")
	flat := engine.New(ek, engine.Config{})
	se1 := engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: 1})
	got, err := flat.BatchGate(engine.NAND, a4, b4)
	if err := rung("engine.Engine", got, err); err != nil {
		return nil, 0, 0, err
	}
	got, err = se.StreamGate(engine.NAND, a4, b4)
	if err := rung("engine.StreamingEngine", got, err); err != nil {
		return nil, 0, 0, err
	}
	before := heapAllocMB()
	held := engine.NewStreaming(ek, engine.StreamConfig{})
	if _, err := held.StreamGate(engine.NAND, a8, b8); err != nil {
		return nil, 0, 0, err
	}
	set("engine.heap_mb_per_streaming", heapAllocMB()-before, "MB")
	runtime.KeepAlive(held)
	set("engine.allocs_per_pbs", allocsPerCall(1, func() { _, _ = se.StreamGate(engine.NAND, a64, b64) })/64, "count")

	gateRate := func(name string, reps int, a, b []tfhe.LWECiphertext, gate func(engine.GateOp, []tfhe.LWECiphertext, []tfhe.LWECiphertext) ([]tfhe.LWECiphertext, error)) probe {
		return probe{name: name, unit: "PBS/s", reps: reps, rate: true, run: func() (float64, error) {
			t0 := time.Now()
			_, err := gate(engine.NAND, a, b)
			return float64(len(a)) / time.Since(t0).Seconds(), err
		}}
	}
	gate4 := func(name string, f func() error) probe { return callProbe(name, cfg.medium, f) }
	probes = append(probes,
		gateRate("engine.stream_pbs_per_s_b8", cfg.medium, a8, b8, se.StreamGate),
		gateRate("engine.stream_pbs_per_s_b64", cfg.slow, a64, b64, se.StreamGate),
		gateRate("engine.flat_pbs_per_s_b8", cfg.medium, a8, b8, flat.BatchGate),
		gateRate("engine.flat_pbs_per_s_b64", cfg.slow, a64, b64, flat.BatchGate),
		gateRate("engine.stream_w1_pbs_per_s_b64", cfg.slow, a64, b64, se1.StreamGate),
		gate4("engine.flat_gate4_ms", func() error { _, err := flat.BatchGate(engine.NAND, a4, b4); return err }),
		gate4("engine.stream_gate4_ms", func() error { _, err := se.StreamGate(engine.NAND, a4, b4); return err }),
	)

	// Scheduler rungs: the workload's adder, and the 4-pair batch as a
	// one-level circuit.
	adder, err := buildAdder()
	if err != nil {
		return nil, 0, 0, err
	}
	operand := newAdderOperands(rng, sk, 1)[0]
	nand4, err := nandCircuit(4)
	if err != nil {
		return nil, 0, 0, err
	}
	in4 := append(append([]tfhe.LWECiphertext{}, a4...), b4...)
	runner := &sched.Runner{Batch: flat, Stream: se}
	got, err = runner.Run(nand4, sched.Config{}, in4)
	if err := rung("sched.Runner", got, err); err != nil {
		return nil, 0, 0, err
	}
	schedule, err := sched.Compile(adder, sched.Config{})
	if err != nil {
		return nil, 0, 0, err
	}
	st := schedule.Stats()
	set("sched.levels", float64(st.Levels), "count")
	set("sched.dispatches", float64(st.Dispatches), "count")
	set("sched.streamed_dispatches", float64(st.Streamed), "count")
	set("sched.rotations_per_op", float64(st.TotalPBS), "count")
	probes = append(probes,
		loopProbe("sched.compile_us", "us", cfg.small, 20, func() { _, _ = sched.Compile(adder, sched.Config{}) }),
		loopProbe("sched.optimize_us", "us", cfg.small, 20, func() { _, _, _ = sched.Optimize(adder, sched.OptAll()) }),
		callProbe("sched.run_ms", cfg.medium, func() error { _, err := runner.Run(adder, sched.Config{}, operand.inputs); return err }),
		callProbe("sched.seq_ms", cfg.slow, func() error { _, err := sched.RunSequential(adder, ev, operand.inputs); return err }),
		gate4("sched.gate4_ms", func() error { _, err := runner.Run(nand4, sched.Config{}, in4); return err }),
	)

	// Wire rows.
	lweBlob := wire.MarshalLWE(a4[0])
	keyBlob, err := wire.MarshalEvalKey(ek)
	if err != nil {
		return nil, 0, 0, err
	}
	set("wire.lwe_bytes", float64(len(lweBlob)), "bytes")
	set("wire.key_bytes", float64(len(keyBlob)), "bytes")
	probes = append(probes,
		loopProbe("wire.marshal_lwe_ns", "ns", cfg.small, 1000, func() { wire.MarshalLWE(a4[0]) }),
		loopProbe("wire.unmarshal_lwe_ns", "ns", cfg.small, 1000, func() { _, _ = wire.UnmarshalLWE(lweBlob) }),
		callProbe("wire.marshal_key_ms", cfg.medium, func() error { _, err := wire.MarshalEvalKey(ek); return err }),
		callProbe("wire.unmarshal_key_ms", cfg.medium, func() error { _, err := wire.UnmarshalEvalKey(keyBlob); return err }),
	)

	// Service rungs: a memory-only server for the in-process register
	// row and the per-session heap, and a disk-backed server behind HTTP
	// and behind the router for everything else.
	const id = "ladder"
	mem := server.New(server.Config{Store: server.NewMemStore()})
	defer func() { _ = mem.Drain() }()
	plain := server.New(server.Config{})
	defer func() { _ = plain.Drain() }()
	before = heapAllocMB()
	if _, err := plain.RegisterKeyEncoded(id, keyBlob); err != nil {
		return nil, 0, 0, fmt.Errorf("register: %w", err)
	}
	if _, err := plain.GateBatch(id, engine.NAND, a4, b4); err != nil {
		return nil, 0, 0, err
	}
	set("server.heap_mb_per_session", heapAllocMB()-before, "MB")

	svc, err := newStack(server.Config{}, true, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	defer svc.close()
	if _, err := svc.srv.RegisterKeyEncoded(id, keyBlob); err != nil {
		return nil, 0, 0, fmt.Errorf("register: %w", err)
	}
	direct, routed := server.Dial(svc.direct, id), server.Dial(svc.front, id)
	notReq := server.EvalRequest{ClientID: id, Kind: server.EvalKindGate, Op: engine.NOT.String(), A: encodeLWEs(a4)}
	nandReq := server.EvalRequest{ClientID: id, Kind: server.EvalKindGate, Op: engine.NAND.String(), A: encodeLWEs(a4), B: encodeLWEs(b4)}
	resp, err := svc.srv.Eval(nandReq)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("Server.Eval: %w", err)
	}
	got = make([]tfhe.LWECiphertext, len(resp.Out))
	for i, blob := range resp.Out {
		if got[i], err = wire.UnmarshalLWE(blob); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := rung("server.Eval", got, nil); err != nil {
		return nil, 0, 0, err
	}
	got, err = direct.GateBatch(engine.NAND, a4, b4)
	if err := rung("HTTP direct", got, err); err != nil {
		return nil, 0, 0, err
	}
	sent := svc.wireBytes()
	got, err = routed.GateBatch(engine.NAND, a4, b4)
	if err := rung("HTTP routed", got, err); err != nil {
		return nil, 0, 0, err
	}
	set("wire.gate4_bytes_per_op", float64(svc.wireBytes()-sent), "bytes")
	sent = svc.wireBytes()
	if err := routed.RegisterKey(ek); err != nil {
		return nil, 0, 0, fmt.Errorf("routed register: %w", err)
	}
	set("wire.register_bytes_per_op", float64(svc.wireBytes()-sent), "bytes")
	peak, err := peakHeapDuring(func() error { return direct.RegisterKey(ek) })
	if err != nil {
		return nil, 0, 0, fmt.Errorf("direct register: %w", err)
	}
	set("server.register_peak_heap_mb", peak, "MB")

	// Two sessions on a server that keeps one warm: every request to the
	// other one restores it from disk.
	cold, err := newStack(server.Config{MaxSessions: 1}, true, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	defer cold.close()
	coldIDs := []string{"cold-0", "cold-1"}
	for _, cid := range coldIDs {
		if _, err := cold.srv.RegisterKeyEncoded(cid, keyBlob); err != nil {
			return nil, 0, 0, fmt.Errorf("register: %w", err)
		}
	}
	turn := 0

	// The zero-PBS request is too short to time alone: 20 to a repetition.
	notProbe := func(name string, do func() error) probe {
		return probe{name: name, unit: "us", reps: cfg.small, run: func() (float64, error) {
			t0 := time.Now()
			for i := 0; i < 20; i++ {
				if err := do(); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(t0)) / 20 / float64(time.Microsecond), nil
		}}
	}
	notOver := func(cl *server.Client) func() error {
		return func() error { _, err := cl.GateBatch(engine.NOT, a4, nil); return err }
	}
	probes = append(probes,
		notProbe("server.eval_not_us", func() error { _, err := svc.srv.Eval(notReq); return err }),
		notProbe("server.http_not_us", notOver(direct)),
		notProbe("router.not_us", notOver(routed)),
		gate4("server.eval_gate4_ms", func() error { _, err := svc.srv.Eval(nandReq); return err }),
		gate4("server.http_gate4_ms", func() error { _, err := direct.GateBatch(engine.NAND, a4, b4); return err }),
		gate4("router.gate4_ms", func() error { _, err := routed.GateBatch(engine.NAND, a4, b4); return err }),
		callProbe("server.register_mem_ms", cfg.slow, func() error { _, err := mem.RegisterKeyEncoded(id, keyBlob); return err }),
		callProbe("server.register_disk_ms", cfg.slow, func() error { _, err := svc.srv.RegisterKeyEncoded(id, keyBlob); return err }),
		callProbe("server.register_http_ms", cfg.slow, func() error { return direct.RegisterKey(ek) }),
		callProbe("router.register_ms", cfg.slow, func() error { return routed.RegisterKey(ek) }),
		callProbe("server.restore_ms", cfg.medium, func() error {
			req := notReq
			req.ClientID = coldIDs[turn%2]
			turn++
			_, err := cold.srv.Eval(req)
			return err
		}),
	)

	// Take the timed rows round-robin: a probe with fewer repetitions is
	// spread evenly over the passes.
	passes := max(cfg.small, cfg.medium, cfg.slow)
	vals := map[string][]float64{}
	for pass := 0; pass < passes; pass++ {
		for _, pr := range probes {
			if stride := passes / pr.reps; pass%stride != 0 || pass/stride >= pr.reps {
				continue
			}
			v, err := pr.run()
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: %w", pr.name, err)
			}
			vals[pr.name] = append(vals[pr.name], v)
		}
	}
	for _, pr := range probes {
		if pr.rate {
			set(pr.name, bestRate(vals[pr.name]), pr.unit)
		} else {
			set(pr.name, bestTime(vals[pr.name]), pr.unit)
		}
	}
	if restores := cold.srv.Restores(); restores < int64(cfg.medium) {
		return nil, 0, 0, fmt.Errorf("server.restore_ms timed %d requests but the server restored %d sessions", cfg.medium, restores)
	}

	// Rows derived from the ones above; each states what it divides.
	v := func(name string) float64 { return m[name].Value }
	ratio := func(name string, num, den float64) { set(name, num/den, "ratio") }
	fftNS := v("tfhe.fwd_fft_per_pbs")/float64(p.PBSLevel)*v("fft.fwd_decompose_ns") +
		v("tfhe.inv_fft_per_pbs")*v("fft.inverse_ns") + mulAccs*v("fft.mulacc_ns")
	ratio("tfhe.fft_share_of_pbs", fftNS/1e6, v("tfhe.pbs_ms"))
	ratio("tfhe.pbs_vs_sum_of_parts", v("tfhe.pbs_ms"),
		v("tfhe.modswitch_us")/1e3+float64(p.SmallN)*v("tfhe.cmux_us")/1e3+v("tfhe.extract_us")/1e3)
	ratio("engine.scaling_w2_vs_w1", v("engine.stream_pbs_per_s_b64"), v("engine.stream_w1_pbs_per_s_b64"))
	ratio("engine.stream_vs_seq", v("engine.stream_pbs_per_s_b64")*v("tfhe.gate_ms"), 1e3)
	ratio("sched.run_vs_seq", v("sched.seq_ms"), v("sched.run_ms"))
	ratio("server.service_vs_engine", v("server.eval_gate4_ms"), v("engine.stream_gate4_ms"))
	ratio("server.http_vs_inprocess", v("server.http_gate4_ms"), v("server.eval_gate4_ms"))
	ratio("router.routed_vs_direct", v("router.gate4_ms"), v("server.http_gate4_ms"))
	set("router.not_hop_us", v("router.not_us")-v("server.http_not_us"), "us")
	set("router.register_hop_ms", v("router.register_ms")-v("server.register_http_ms"), "ms")
	delete(m, "router.not_us")
	delete(m, "router.register_ms")

	// Reference constants: the accelerator model's throughput at this set
	// and the FFT share of a bootstrap in the Fig 1 cost model.
	if model, err := arch.NewModel(arch.DefaultConfig(), p); err == nil {
		set("arch.model_pbs_per_s_I", model.ThroughputPBS(), "PBS/s")
	} else {
		set("arch.model_pbs_per_s_I", 0, "PBS/s")
	}
	ev.Counters.Reset()
	ev.NAND(a4[0], b4[0])
	bd := baseline.GateBreakdown(p, ev, baseline.DefaultCostWeights())
	set("baseline.fig1_fft_share", bd.BlindRotateFrac*(bd.FFTFrac+bd.VMAFrac+bd.IFFTAccFrac+bd.DecompFrac), "ratio")
	return m, checks, failed, nil
}
