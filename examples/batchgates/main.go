// Batchgates: the streaming batch engine end to end.
//
// Encrypts two bit-vectors, evaluates a batch of gates in parallel on the
// engine (one PBS + KS per gate, in tiles that each worker, with its own
// evaluator, runs start to finish), verifies every decryption, then times
// workers=1 against workers=NumCPU — the software analogue of the batching
// the Strix accelerator exploits for throughput.
//
// Run with: go run ./examples/batchgates
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	strix "repro"
	"repro/internal/tfhe"
)

const bits = 64

func main() {
	ctx, err := strix.NewFHEContext("test", 42)
	if err != nil {
		log.Fatal(err)
	}

	xs := make([]bool, bits)
	ys := make([]bool, bits)
	for i := range xs {
		xs[i] = i%3 == 0
		ys[i] = i%2 == 0
	}
	as := ctx.EncryptBools(xs)
	bs := ctx.EncryptBools(ys)

	// --- Batched gates, all lanes in parallel ---------------------------
	for _, op := range []strix.GateOp{strix.NAND, strix.XOR, strix.OR} {
		outs, err := ctx.BatchGate(op, as, bs)
		if err != nil {
			log.Fatal(err)
		}
		for i, got := range ctx.DecryptBools(outs) {
			if want := op.Eval(xs[i], ys[i]); got != want {
				log.Fatalf("%s lane %d: got %v, want %v", op, i, got, want)
			}
		}
		fmt.Printf("%-4s × %d lanes: all decryptions correct\n", op, bits)
	}

	// --- A dependency-free circuit level --------------------------------
	// First level of a ripple-free popcount-ish circuit: pairwise XOR/AND
	// over adjacent input wires. The gates are independent, and all of
	// them bootstrap against the same sign test vector, so the mixed ops
	// run as one batch.
	var ops []strix.GateOp
	var ga, gb []tfhe.LWECiphertext
	var want []bool
	for i := 0; i+1 < bits; i += 2 {
		ops = append(ops, strix.XOR, strix.AND)
		ga = append(ga, as[i], as[i])
		gb = append(gb, as[i+1], as[i+1])
		want = append(want, xs[i] != xs[i+1], xs[i] && xs[i+1])
	}
	level, err := ctx.NewEngine(0).Gates(ops, ga, gb)
	if err != nil {
		log.Fatal(err)
	}
	for g, got := range ctx.DecryptBools(level) {
		if got != want[g] {
			log.Fatalf("level gate %d (%s): got %v, want %v", g, ops[g], got, want[g])
		}
	}
	fmt.Printf("circuit level: %d gates in one batch\n", len(level))

	// --- Scaling: workers=1 vs workers=NumCPU ---------------------------
	ncpu := runtime.NumCPU()
	for _, w := range []int{1, ncpu} {
		eng := ctx.NewEngine(w)
		if _, err := eng.Gates(strix.NAND.Repeat(8), as[:8], bs[:8]); err != nil {
			log.Fatal(err) // warm the pool before timing
		}
		eng.ResetCounters()
		start := time.Now()
		if _, err := eng.Gates(strix.NAND.Repeat(bits), as, bs); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		c := eng.Counters()
		fmt.Printf("workers=%-2d : %d PBS in %7v  =  %6.1f PBS/s\n",
			w, c.PBSCount, elapsed.Round(time.Millisecond), float64(c.PBSCount)/elapsed.Seconds())
	}

	acc, err := strix.NewAccelerator("I")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strix model: %.0f PBS/s predicted (set I) — the gap is the accelerator's thesis\n",
		acc.ThroughputPBS())
}
