// Programmable bootstrapping as a lookup table: evaluate ReLU and sign on
// encrypted integers — the neural-network activation pattern of §II-C
// ("TFHE is particularly useful for evaluating the activation function in
// neural networks"). Every activation is ONE bootstrap, which also resets
// the ciphertext noise: this is the PBS stream that Strix batches.
//
// Run with: go run ./examples/lutrelu
package main

import (
	"fmt"
	"log"

	strix "repro"
)

const space = 16 // messages 0..15 encode signed values -8..+7 (offset 8)

// offset-binary helpers.
func enc(v int) int { return v + space/2 }
func dec(m int) int { return m - space/2 }
func relu(m int) int { // ReLU in offset-binary domain
	if m >= space/2 {
		return m
	}
	return space / 2
}
func sign(m int) int { // sign → {-1,+1} in offset-binary domain
	if m >= space/2 {
		return enc(1)
	}
	return enc(-1)
}

func main() {
	ctx, err := strix.NewFHEContext("test", 99)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("encrypted activation functions via programmable bootstrapping:")
	fmt.Println(" v   ReLU(v)  sign(v)")
	for _, v := range []int{-7, -3, -1, 0, 1, 4, 7} {
		ct := ctx.EncryptInt(enc(v), space)

		r := ctx.Eval.EvalLUTKS(ct, space, []func(int) int{relu})[0]
		s := ctx.Eval.EvalLUTKS(ct, space, []func(int) int{sign})[0]

		gotR := dec(ctx.DecryptInt(r, space))
		gotS := dec(ctx.DecryptInt(s, space))
		fmt.Printf("%+2d   %+2d       %+2d\n", v, gotR, gotS)

		wantR := v
		if v < 0 {
			wantR = 0
		}
		wantS := 1
		if v < 0 {
			wantS = -1
		}
		if gotR != wantR || gotS != wantS {
			log.Fatalf("mismatch at v=%d: relu %d (want %d), sign %d (want %d)",
				v, gotR, wantR, gotS, wantS)
		}
	}

	// A 92-neuron dense layer needs 92 such bootstraps; Strix schedules
	// them as one epoch across its 8 streaming cores.
	acc, err := strix.NewAccelerator("II")
	if err != nil {
		log.Fatal(err)
	}
	res, err := acc.RunPBS(92)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n92 activations on Strix (set II): %.2f ms (%d epochs)\n",
		res.Seconds*1e3, res.Epochs)
}
