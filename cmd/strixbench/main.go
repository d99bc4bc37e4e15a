// Command strixbench regenerates the tables and figures of the Strix paper
// (MICRO 2023) from the models in this repository, and runs the two
// multi-bit scenarios whose set-I correctness the ROADMAP tracks: a
// scheduled multi-digit multiply at the radix the one noise rule admits
// (intops.For), which must decode right, and encrypted inference over
// the gate service, which decodes right or is refused by the rule
// (noise.Check) before any PBS, printing the node, σ and predicted
// failure, exit 0. A wrong decode or any other refusal exits 1 (`make
// selfcheck` runs both at set I). Engine, scheduler, service and router
// throughput are measured by the benchmark ledger (benchmark/, `make bench`).
//
// Usage:
//
//	strixbench -list
//	strixbench -exp all
//	strixbench -exp table5 -format csv
//	strixbench -exp fig1 -full         # Fig 1 with full-scale set I (slow)
//	strixbench -circuit 4              # scheduled vs sequential multiply PBS/s
//	strixbench -circuit 4 -parallel 8  # ... with explicit engine widths
//	strixbench -circuit 3 -set I       # ... on a full-scale parameter set (slow)
//	strixbench -circuit 4 -kernel ref  # ... on the pure-Go reference FFT kernels
//	strixbench -infer 64               # encrypted cellCNN-style inference inf/s
//	strixbench -infer 64 -clients 4    # ... from concurrent client sessions
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/intops"
	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/workload"
)

// runInfer measures the encrypted cellCNN-style inference scenario end
// to end: an in-process gate service, clients uploading encrypted
// feature vectors through the v2 infer envelope, class scores coming
// back encrypted. Before timing it verifies the full input sweep —
// every feature vector the model admits — decodes identical to the
// quantized cleartext reference and reports the prediction agreement,
// then times a `count`-inference batch per client, plain and with the
// server-side optimizer, reporting inferences/s.
func runInfer(set string, count, clients int) error {
	p, err := tfhe.ParamsByName(set)
	if err != nil {
		return err
	}
	if count < 1 {
		return fmt.Errorf("-infer inference count must be >= 1, got %d", count)
	}
	if clients < 1 {
		return fmt.Errorf("-clients must be >= 1, got %d", clients)
	}

	fmt.Printf("infer mode: set %s, %d clients x %d inferences (%d features each)\n",
		p.Name, clients, count, workload.InferFeatures)
	sweep := workload.InferSweep()
	srv := server.New(server.Config{
		MaxBatch: workload.InferFeatures * max(len(sweep), clients*count),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go func() { _ = srv.Serve(l, nil) }()
	base := "http://" + l.Addr().String()

	fmt.Print("generating keys + registering sessions... ")
	start := time.Now()
	type clientState struct {
		sk  tfhe.SecretKeys
		cl  *server.Client
		cts []tfhe.LWECiphertext
	}
	states := make([]*clientState, clients)
	for i := range states {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		sk, ek := tfhe.GenerateKeys(rng, p)
		cl := server.Dial(base, fmt.Sprintf("infer-client-%d", i))
		if err := cl.RegisterKey(ek); err != nil {
			return err
		}
		st := &clientState{sk: sk, cl: cl}
		for v := 0; v < count; v++ {
			for m := 0; m < workload.InferFeatures; m++ {
				st.cts = append(st.cts, sk.LWE.Encrypt(rng,
					tfhe.EncodePBSMessage(rng.Intn(workload.InferDigitMax+1), workload.InferSpace), p.LWEStdDev))
			}
		}
		states[i] = st
	}
	fmt.Printf("done (%.2fs)\n", time.Since(start).Seconds())

	// Verify the full input domain against the cleartext reference before
	// timing anything, through client 0's session.
	st0 := states[0]
	rng := rand.New(rand.NewSource(1000))
	var sweepCts []tfhe.LWECiphertext
	for _, v := range sweep {
		for _, m := range v {
			sweepCts = append(sweepCts, st0.sk.LWE.Encrypt(rng,
				tfhe.EncodePBSMessage(m, workload.InferSpace), p.LWEStdDev))
		}
	}
	got, err := st0.cl.Infer(sweepCts, server.EvalOpts{Optimize: true})
	if refused(err) {
		fmt.Printf("refused  : %v\n", err)
		return nil
	}
	if err != nil {
		return err
	}
	agree := 0
	for i, v := range sweep {
		want, err := workload.InferReference(v)
		if err != nil {
			return err
		}
		dec := make([]int, workload.InferClasses)
		for k := range dec {
			dec[k] = tfhe.DecodePBSMessage(st0.sk.LWE.Phase(got[i][k]), workload.InferSpace)
			if dec[k] != want[k] {
				return fmt.Errorf("sweep vector %v score %d decodes to %d, want %d", v, k, dec[k], want[k])
			}
		}
		if workload.InferPredict(dec) == workload.InferPredict(want) {
			agree++
		}
	}
	fmt.Printf("verified : all %d sweep vectors decode identical to the cleartext reference; prediction agreement %d/%d (%.1f%%)\n",
		len(sweep), agree, len(sweep), 100*float64(agree)/float64(len(sweep)))

	// Time the client batches concurrently (one infer envelope per
	// session; the sessions share the process's worker pool), plain and
	// optimized.
	for _, opts := range []server.EvalOpts{{}, {Optimize: true}} {
		label := "plain    "
		if opts.Optimize {
			label = "optimized"
		}
		// Warm sessions and HTTP connections.
		for _, st := range states {
			if _, err := st.cl.Infer(st.cts[:workload.InferFeatures], opts); err != nil {
				return err
			}
		}
		start = time.Now()
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i, st := range states {
			wg.Add(1)
			go func(i int, st *clientState) {
				defer wg.Done()
				out, err := st.cl.Infer(st.cts, opts)
				if err == nil && len(out) != count {
					err = fmt.Errorf("client %d: %d score groups, want %d", i, len(out), count)
				}
				errs[i] = err
			}(i, st)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		total := clients * count
		fmt.Printf("%s: %d inferences over HTTP in %v  =  %.1f inf/s\n",
			label, total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	}
	return nil
}

// runCircuit measures the levelizing circuit scheduler against the
// unscheduled per-gate path on a multi-digit encrypted multiply — the
// carry-chain workload whose partial products give the scheduler wide
// levels to batch. Both paths execute the identical DAG (and produce
// bitwise-identical ciphertexts, which is verified); only the dispatch
// strategy differs, so the speedup is pure scheduling.
func runCircuit(set string, digits, workers int) error {
	p, err := tfhe.ParamsByName(set)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	radix, err := intops.For(p)
	if err != nil {
		return err
	}
	// At most 30 value bits, so that a product fits an int64.
	if maxDigits := 30 / bits.Len(uint(radix.Base()-1)); digits < 1 || digits > maxDigits {
		return fmt.Errorf("-circuit digit count must be in [1,%d] at radix %d, got %d", maxDigits, radix.Base(), digits)
	}

	fmt.Printf("circuit mode: set %s, %d-digit multiply, %d workers\n", p.Name, digits, workers)
	fmt.Print("generating keys... ")
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	sk, ek := tfhe.GenerateKeys(rng, p)
	fmt.Printf("done (%.2fs)\n", time.Since(start).Seconds())

	vx := rng.Intn(radix.MaxValue(digits) + 1)
	vy := rng.Intn(radix.MaxValue(digits) + 1)
	x, err := radix.Encrypt(rng, sk, vx, digits)
	if err != nil {
		return err
	}
	y, err := radix.Encrypt(rng, sk, vy, digits)
	if err != nil {
		return err
	}
	inputs := make([]tfhe.LWECiphertext, 0, 2*digits)
	inputs = append(inputs, x.Digits...)
	inputs = append(inputs, y.Digits...)

	circ, err := radix.MulCircuit(digits)
	if err != nil {
		return err
	}
	schedule, err := sched.Compile(circ, sched.Config{})
	if err != nil {
		return err
	}
	st := schedule.Stats()
	fmt.Printf("plan     : base %d, space %d; %s\n", radix.Base(), radix.Space(), schedule)

	// Sequential reference: one evaluator, one PBS at a time, same DAG.
	// The first run warms the twiddles.
	ev := tfhe.NewEvaluator(ek)
	if _, err := sched.RunSequential(circ, ev, inputs); err != nil {
		return err
	}
	start = time.Now()
	seqOut, err := sched.RunSequential(circ, ev, inputs)
	if err != nil {
		return err
	}
	seqElapsed := time.Since(start)
	seqRate := float64(st.TotalPBS) / seqElapsed.Seconds()
	fmt.Printf("sequential: %d PBS in %v  =  %.1f PBS/s\n",
		st.TotalPBS, seqElapsed.Round(time.Millisecond), seqRate)

	// Scheduled: levelized dispatches over the streaming engine.
	runner := &sched.Runner{Stream: engine.NewStreaming(ek, engine.StreamConfig{RotateWorkers: workers})}
	if _, err := runner.RunSchedule(circ, schedule, inputs); err != nil { // warm pools
		return err
	}
	start = time.Now()
	schedOut, err := runner.RunSchedule(circ, schedule, inputs)
	if err != nil {
		return err
	}
	schedElapsed := time.Since(start)
	schedRate := float64(st.TotalPBS) / schedElapsed.Seconds()
	fmt.Printf("scheduled : %d PBS in %v  =  %.1f PBS/s  (%.2fx the per-gate path, %d workers)\n",
		st.TotalPBS, schedElapsed.Round(time.Millisecond), schedRate, schedRate/seqRate, workers)

	// Verify: bitwise-identical ciphertexts and the correct product.
	for i := range seqOut {
		if !tfhe.EqualLWE(seqOut[i], schedOut[i]) {
			return fmt.Errorf("scheduled output %d differs from sequential", i)
		}
	}
	want := (vx * vy) % (radix.MaxValue(digits) + 1)
	if got := radix.Decrypt(sk, intops.Int{Digits: schedOut}); got != want {
		return fmt.Errorf("decrypted product %d, want %d (%d*%d)", got, want, vx, vy)
	}
	fmt.Printf("verified  : %d * %d = %d mod %d, bitwise identical to sequential\n",
		vx, vy, want, radix.MaxValue(digits)+1)

	// Optimized: the same DAG through the full optimizer pass pipeline
	// (fewer rotations, same decoded product — not bitwise).
	opt := sched.OptAll()
	opt.Params = p
	optSchedule, err := sched.Compile(circ, sched.Config{Opt: opt})
	if err != nil {
		return err
	}
	fmt.Printf("opt plan  : %s\n", optSchedule)
	if _, err := runner.RunSchedule(circ, optSchedule, inputs); err != nil { // warm pools
		return err
	}
	start = time.Now()
	optOut, err := runner.RunSchedule(circ, optSchedule, inputs)
	if err != nil {
		return err
	}
	optElapsed := time.Since(start)
	optStats := optSchedule.Stats()
	fmt.Printf("optimized : %d PBS in %v  (%.2fx the naive schedule, -%d PBS)\n",
		optStats.TotalPBS, optElapsed.Round(time.Millisecond),
		schedElapsed.Seconds()/optElapsed.Seconds(), st.TotalPBS-optStats.TotalPBS)
	if got := radix.Decrypt(sk, intops.Int{Digits: optOut}); got != want {
		return fmt.Errorf("optimized product %d, want %d (%d*%d)", got, want, vx, vy)
	}
	fmt.Printf("verified  : optimized product decodes to %d\n", want)

	model, err := arch.NewModel(arch.DefaultConfig(), p)
	if err != nil {
		fmt.Printf("accelerator model unavailable for set %s: %v\n", p.Name, err)
		return nil
	}
	predicted := model.ThroughputPBS()
	fmt.Printf("strix     : predicted %.1f PBS/s  (%.0fx the scheduled path)\n",
		predicted, predicted/schedRate)
	return nil
}

// refused reports whether err is the one noise rule's refusal: a
// *noise.BudgetError from an in-process check, or the gate service's
// noise_budget code. A refusal is a correct outcome: the parameter set
// cannot compute the circuit, and nothing decrypted wrongly.
func refused(err error) bool {
	var budget *noise.BudgetError
	var api *server.APIError
	return errors.As(err, &budget) || (errors.As(err, &api) && api.Code == server.CodeNoiseBudget)
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	format := flag.String("format", "text", "output format: text or csv")
	list := flag.Bool("list", false, "list experiment ids and exit")
	full := flag.Bool("full", false, "run fig1 with full-scale parameter set I (slow)")
	circuit := flag.Int("circuit", 0, "circuit scheduler mode: multiply digit count (enables the mode)")
	infer := flag.Int("infer", 0, "encrypted inference mode: inferences per client batch (enables the mode)")
	clients := flag.Int("clients", 4, "infer mode: concurrent client sessions")
	parallel := flag.Int("parallel", 0, "circuit mode: the streaming engine's width (0 = GOMAXPROCS)")
	set := flag.String("set", "test", "circuit/infer mode: parameter set")
	kernel := flag.String("kernel", "fast", "FFT kernel set: fast (the host's best, the default: avx512, the AVX-512 transform bodies, where it has AVX-512F and DQ, else avx2, the AVX2 assembly, where it has AVX2, else ref) or ref (the bounds-checked reference)")
	flag.Parse()

	note := ""
	switch {
	case *kernel == "ref":
		fft.SetKernelSet("ref")
		note = " (forced by -kernel ref)"
	case *kernel != "fast":
		fmt.Fprintf(os.Stderr, "strixbench: unknown -kernel %q (want fast or ref)\n", *kernel)
		os.Exit(1)
	case !fft.FastKernelAvailable():
		note = " (no AVX2 on this host or build)"
	}
	if !*list {
		fmt.Printf("kernel   : %s%s\n", fft.KernelSet(), note)
	}

	var err error
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *circuit != 0 && *infer != 0:
		err = fmt.Errorf("-circuit and -infer are mutually exclusive; run them separately")
	case *infer != 0:
		err = runInfer(*set, *infer, *clients)
	case *circuit != 0:
		err = runCircuit(*set, *circuit, *parallel)
	default:
		err = runExperiments(*exp, *format, *full)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "strixbench:", err)
		os.Exit(1)
	}
}

// runExperiments regenerates one experiment, or all of them, and prints
// each report as text or CSV.
func runExperiments(exp, format string, full bool) error {
	var reports []experiments.Report
	var err error
	switch {
	case exp == "fig1" && full:
		var r experiments.Report
		r, err = experiments.Fig1(tfhe.ParamsI, 1)
		reports = []experiments.Report{r}
	case exp == "all":
		reports, err = experiments.RunAll()
	default:
		var r experiments.Report
		r, err = experiments.Run(exp)
		reports = []experiments.Report{r}
	}
	if err != nil {
		return err
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		switch format {
		case "csv":
			fmt.Print(r.CSV())
		default:
			fmt.Print(r.Text())
		}
	}
	return nil
}
