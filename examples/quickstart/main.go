// Quickstart: the two halves of the library in ~40 lines.
//
//  1. Functional TFHE: encrypt booleans, evaluate a gate homomorphically
//     (one programmable bootstrap + one keyswitch), decrypt.
//  2. Accelerator model: ask the Strix performance model what the same
//     workload costs on the 8-HSC chip of the paper.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	strix "repro"
)

func main() {
	// --- Functional TFHE -------------------------------------------------
	ctx, err := strix.NewFHEContext("test", 42)
	if err != nil {
		log.Fatal(err)
	}
	a := ctx.EncryptBool(true)
	b := ctx.EncryptBool(true)

	nand := ctx.Eval.NAND(a, b) // one PBS + one KS, fully homomorphic
	fmt.Printf("NAND(true, true) = %v\n", ctx.DecryptBool(nand))

	xor := ctx.Eval.XOR(a, b)
	fmt.Printf("XOR(true, true)  = %v\n", ctx.DecryptBool(xor))

	// A programmable bootstrap can evaluate ANY univariate function while
	// refreshing noise — here, squaring mod 8.
	ct := ctx.EncryptInt(5, 8)
	sq := ctx.Eval.EvalLUTKS(ct, 8, []func(int) int{func(x int) int { return x * x % 8 }})[0]
	fmt.Printf("5^2 mod 8        = %d (computed under encryption)\n", ctx.DecryptInt(sq, 8))

	// --- Strix accelerator model -----------------------------------------
	acc, err := strix.NewAccelerator("I") // paper's 110-bit parameter set
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStrix (8 HSCs @ 1.2 GHz, set I):\n")
	fmt.Printf("  PBS latency:    %.2f ms\n", acc.LatencyMs())
	fmt.Printf("  PBS throughput: %.0f PBS/s\n", acc.ThroughputPBS())

	res, err := acc.RunPBS(10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  10,000 PBS:     %.2f ms in %d epochs\n", res.Seconds*1e3, res.Epochs)
}
