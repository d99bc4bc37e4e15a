// Command tfhecli demonstrates the functional TFHE library: it encrypts
// inputs, evaluates gates or lookup tables homomorphically (each gate/LUT
// is one programmable bootstrap), and decrypts the result.
//
// Usage:
//
//	tfhecli gate -op NAND -a true -b false
//	tfhecli lut -space 8 -fn square -m 5
//	tfhecli adder -x 23 -y 45 -bits 8
//
// The default parameter set is the fast test set; pass -set I for the
// full-scale 110-bit parameters (key generation takes a few seconds).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	strix "repro"
	"repro/internal/tfhe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gate":
		gateCmd(os.Args[2:])
	case "lut":
		lutCmd(os.Args[2:])
	case "adder":
		adderCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tfhecli <gate|lut|adder> [flags]")
	os.Exit(2)
}

func newCtx(set string) *strix.FHEContext {
	start := time.Now()
	ctx, err := strix.NewFHEContext(set, time.Now().UnixNano())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tfhecli:", err)
		os.Exit(1)
	}
	fmt.Printf("key generation (set %s): %v\n", set, time.Since(start).Round(time.Millisecond))
	return ctx
}

func gateCmd(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	set := fs.String("set", "test", "parameter set")
	op := fs.String("op", "NAND", "gate: NAND|AND|OR|NOR|XOR|XNOR")
	a := fs.Bool("a", true, "first operand")
	b := fs.Bool("b", false, "second operand")
	fs.Parse(args)

	ctx := newCtx(*set)
	ca, cb := ctx.EncryptBool(*a), ctx.EncryptBool(*b)
	start := time.Now()
	var out tfhe.LWECiphertext
	switch *op {
	case "NAND":
		out = ctx.Eval.NAND(ca, cb)
	case "AND":
		out = ctx.Eval.AND(ca, cb)
	case "OR":
		out = ctx.Eval.OR(ca, cb)
	case "NOR":
		out = ctx.Eval.NOR(ca, cb)
	case "XOR":
		out = ctx.Eval.XOR(ca, cb)
	case "XNOR":
		out = ctx.Eval.XNOR(ca, cb)
	default:
		fmt.Fprintln(os.Stderr, "tfhecli: unknown gate", *op)
		os.Exit(1)
	}
	fmt.Printf("%s(%v, %v) = %v  (1 PBS + 1 KS in %v)\n",
		*op, *a, *b, ctx.DecryptBool(out), time.Since(start).Round(time.Microsecond))
}

func lutCmd(args []string) {
	fs := flag.NewFlagSet("lut", flag.ExitOnError)
	set := fs.String("set", "test", "parameter set")
	space := fs.Int("space", 8, "message space (messages 0..space-1)")
	fn := fs.String("fn", "square", "function: square|inc|relu|negate")
	m := fs.Int("m", 3, "plaintext message")
	fs.Parse(args)

	funcs := map[string]func(int) int{
		"square": func(x int) int { return (x * x) % *space },
		"inc":    func(x int) int { return (x + 1) % *space },
		"relu": func(x int) int {
			if x >= *space/2 {
				return x
			}
			return *space / 2
		},
		"negate": func(x int) int { return (*space - x) % *space },
	}
	f, ok := funcs[*fn]
	if !ok {
		fmt.Fprintln(os.Stderr, "tfhecli: unknown function", *fn)
		os.Exit(1)
	}

	ctx := newCtx(*set)
	ct := ctx.EncryptInt(*m, *space)
	start := time.Now()
	out := ctx.Eval.EvalLUTKS(ct, *space, []func(int) int{f})[0]
	fmt.Printf("%s(%d) mod %d = %d  (programmable bootstrap in %v)\n",
		*fn, *m, *space, ctx.DecryptInt(out, *space), time.Since(start).Round(time.Microsecond))
}

func adderCmd(args []string) {
	fs := flag.NewFlagSet("adder", flag.ExitOnError)
	set := fs.String("set", "test", "parameter set")
	x := fs.Int("x", 23, "first addend")
	y := fs.Int("y", 45, "second addend")
	bits := fs.Int("bits", 8, "adder width")
	fs.Parse(args)

	ctx := newCtx(*set)
	ax := encryptBits(ctx, *x, *bits)
	ay := encryptBits(ctx, *y, *bits)

	start := time.Now()
	sum := make([]tfhe.LWECiphertext, *bits)
	carry := ctx.EncryptBool(false)
	for i := 0; i < *bits; i++ {
		// Full adder: sum = a XOR b XOR cin; cout = MUX(a XOR b, cin, a).
		axb := ctx.Eval.XOR(ax[i], ay[i])
		sum[i] = ctx.Eval.XOR(axb, carry)
		carry = ctx.Eval.MUX(axb, carry, ax[i])
	}
	elapsed := time.Since(start)

	got := 0
	for i := *bits - 1; i >= 0; i-- {
		got <<= 1
		if ctx.DecryptBool(sum[i]) {
			got |= 1
		}
	}
	gates := ctx.Eval.Counters.PBSCount
	fmt.Printf("%d + %d = %d (mod 2^%d)  [%d bootstraps in %v]\n",
		*x, *y, got, *bits, gates, elapsed.Round(time.Millisecond))
	if want := (*x + *y) & (1<<*bits - 1); got != want {
		fmt.Fprintf(os.Stderr, "tfhecli: MISMATCH, expected %d\n", want)
		os.Exit(1)
	}
}

func encryptBits(ctx *strix.FHEContext, v, bits int) []tfhe.LWECiphertext {
	out := make([]tfhe.LWECiphertext, bits)
	for i := 0; i < bits; i++ {
		out[i] = ctx.EncryptBool(v>>i&1 == 1)
	}
	return out
}
