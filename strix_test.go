package strix

import "testing"

func TestFHEContextGateRoundtrip(t *testing.T) {
	ctx, err := NewFHEContext("test", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := ctx.EncryptBool(true)
	b := ctx.EncryptBool(false)
	if got := ctx.DecryptBool(ctx.Eval.NAND(a, b)); got != true {
		t.Errorf("NAND(T,F) = %v", got)
	}
	if got := ctx.DecryptBool(ctx.Eval.AND(a, b)); got != false {
		t.Errorf("AND(T,F) = %v", got)
	}
}

func TestFHEContextIntLUT(t *testing.T) {
	ctx, err := NewFHEContext("test", 2)
	if err != nil {
		t.Fatal(err)
	}
	ct := ctx.EncryptInt(3, 8)
	out := ctx.Eval.EvalLUTKS(ct, 8, []func(int) int{func(x int) int { return (2 * x) % 8 }})[0]
	if got := ctx.DecryptInt(out, 8); got != 6 {
		t.Errorf("2*3 mod 8 = %d", got)
	}
}

func TestFHEContextBatchGate(t *testing.T) {
	ctx, err := NewFHEContext("test", 3)
	if err != nil {
		t.Fatal(err)
	}
	xs := []bool{true, false, true, true, false}
	ys := []bool{true, true, false, true, false}
	as := ctx.EncryptBools(xs)
	bs := ctx.EncryptBools(ys)

	outs, err := ctx.BatchGate(NAND, as, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range ctx.DecryptBools(outs) {
		if want := !(xs[i] && ys[i]); got != want {
			t.Errorf("NAND[%d] = %v, want %v", i, got, want)
		}
	}
	if c := ctx.eng.Counters(); c.PBSCount != int64(len(xs)) {
		t.Errorf("engine PBSCount = %d, want %d", c.PBSCount, len(xs))
	}

	// A dependency-free circuit level, mixed ops in one batch, on an
	// engine of explicit size. The NOT lane's second operand is unused.
	outs, err = ctx.NewEngine(2).Gates([]GateOp{XOR, NOT}, as[:2], bs[:2])
	if err != nil {
		t.Fatal(err)
	}
	dec := ctx.DecryptBools(outs)
	if dec[0] != (xs[0] != ys[0]) || dec[1] != !xs[1] {
		t.Errorf("Gates decryptions = %v", dec)
	}
}

func TestFHEContextDeterministic(t *testing.T) {
	a, _ := NewFHEContext("test", 5)
	b, _ := NewFHEContext("test", 5)
	ca := a.EncryptBool(true)
	cb := b.EncryptBool(true)
	if ca.B != cb.B {
		t.Error("same seed should produce identical ciphertexts")
	}
}

func TestFHEContextUnknownSet(t *testing.T) {
	if _, err := NewFHEContext("nope", 1); err == nil {
		t.Error("unknown set should error")
	}
}

func TestAcceleratorHeadlineNumbers(t *testing.T) {
	acc, err := NewAccelerator("I")
	if err != nil {
		t.Fatal(err)
	}
	if thr := acc.ThroughputPBS(); thr < 73000 || thr > 77000 {
		t.Errorf("set I throughput %v, want ~74,696", thr)
	}
	if lat := acc.LatencyMs(); lat < 0.15 || lat > 0.18 {
		t.Errorf("set I latency %v ms, want ~0.16", lat)
	}
}

func TestAcceleratorRunPBS(t *testing.T) {
	acc, err := NewAccelerator("II")
	if err != nil {
		t.Fatal(err)
	}
	r, err := acc.RunPBS(1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.PBSCount != 1000 || r.Seconds <= 0 {
		t.Errorf("RunPBS result %+v", r)
	}
}
