package intops

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

var (
	testSK tfhe.SecretKeys
	testEK tfhe.EvaluationKeys
)

func init() {
	rng := rand.New(rand.NewSource(31))
	testSK, testEK = tfhe.GenerateKeys(rng, tfhe.ParamsTest)
}

// scheduledEvaluator builds an evaluator over fresh engines (small pools
// keep the tests fast).
func scheduledEvaluator() *Evaluator {
	return NewScheduled(&sched.Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})})
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []int{0, 1, 7, 42, 63} {
		x, err := Encrypt(rng, testSK, v, 3) // 3 digits: 0..63
		if err != nil {
			t.Fatal(err)
		}
		if got := Decrypt(testSK, x); got != v {
			t.Errorf("roundtrip(%d) = %d", v, got)
		}
	}
}

func TestEncryptRangeCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := Encrypt(rng, testSK, 64, 3); err == nil {
		t.Error("64 does not fit 3 radix-4 digits")
	}
	if _, err := Encrypt(rng, testSK, -1, 3); err == nil {
		t.Error("negative should error")
	}
}

func TestMaxValue(t *testing.T) {
	if MaxValue(3) != 63 || MaxValue(1) != 3 {
		t.Errorf("MaxValue wrong: %d, %d", MaxValue(3), MaxValue(1))
	}
}

func TestAddWithCarryChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ev := New(tfhe.NewEvaluator(testEK))
	cases := [][2]int{{5, 7}, {0, 0}, {63, 1}, {21, 42}, {33, 31}}
	for _, c := range cases {
		x, _ := Encrypt(rng, testSK, c[0], 3)
		y, _ := Encrypt(rng, testSK, c[1], 3)
		sum, err := ev.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := (c[0] + c[1]) % 64
		if got := Decrypt(testSK, sum); got != want {
			t.Errorf("%d+%d = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestAddDigitMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ev := New(tfhe.NewEvaluator(testEK))
	x, _ := Encrypt(rng, testSK, 1, 2)
	y, _ := Encrypt(rng, testSK, 1, 3)
	if _, err := ev.Add(x, y); err == nil {
		t.Error("digit mismatch should error")
	}
}

func TestAddScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ev := New(tfhe.NewEvaluator(testEK))
	x, _ := Encrypt(rng, testSK, 17, 3)
	got, err := ev.AddScalar(x, 30)
	if err != nil {
		t.Fatal(err)
	}
	if v := Decrypt(testSK, got); v != 47 {
		t.Errorf("17+30 = %d", v)
	}
}

func TestMulScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ev := New(tfhe.NewEvaluator(testEK))
	x, _ := Encrypt(rng, testSK, 11, 3)
	for _, c := range []int{0, 1, 3, 5} {
		got, err := ev.MulScalar(x, c)
		if err != nil {
			t.Fatal(err)
		}
		want := (11 * c) % 64
		if v := Decrypt(testSK, got); v != want {
			t.Errorf("11*%d = %d, want %d", c, v, want)
		}
	}
}

func TestMul(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ev := New(tfhe.NewEvaluator(testEK))
	cases := [][2]int{{0, 0}, {1, 7}, {5, 9}, {11, 13}, {63, 63}, {63, 1}, {8, 8}}
	for _, c := range cases {
		x, _ := Encrypt(rng, testSK, c[0], 3)
		y, _ := Encrypt(rng, testSK, c[1], 3)
		prod, err := ev.Mul(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := (c[0] * c[1]) % 64
		if got := Decrypt(testSK, prod); got != want {
			t.Errorf("%d*%d = %d, want %d", c[0], c[1], got, want)
		}
	}
	x, _ := Encrypt(rng, testSK, 1, 2)
	y, _ := Encrypt(rng, testSK, 1, 3)
	if _, err := ev.Mul(x, y); err == nil {
		t.Error("digit mismatch should error")
	}
}

func TestIsEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ev := New(tfhe.NewEvaluator(testEK))
	cases := []struct {
		a, b int
		eq   int
	}{{42, 42, 1}, {42, 43, 0}, {0, 0, 1}, {63, 0, 0}, {21, 22, 0}}
	for _, c := range cases {
		x, _ := Encrypt(rng, testSK, c.a, 3)
		y, _ := Encrypt(rng, testSK, c.b, 3)
		res, err := ev.IsEqual(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecryptBit(testSK, res); got != c.eq {
			t.Errorf("IsEqual(%d,%d) = %d, want %d", c.a, c.b, got, c.eq)
		}
	}
}

// TestIsEqualNoCancellation is the regression test for the digit-difference
// encoding bug: 4 = (0,1) and 1 = (1,0) differ by +1 in one digit and −1
// in the other; the old ±1/opSpace indicator sum cancelled to zero and
// reported them equal. The packed-pair indicators cannot cancel.
func TestIsEqualNoCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, ev := range []*Evaluator{New(tfhe.NewEvaluator(testEK)), scheduledEvaluator()} {
		x, _ := Encrypt(rng, testSK, 4, 2)
		y, _ := Encrypt(rng, testSK, 1, 2)
		res, err := ev.IsEqual(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecryptBit(testSK, res); got != 0 {
			t.Errorf("IsEqual(4,1) = %d, want 0", got)
		}
	}
}

func TestIsEqualTooManyDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ev := New(tfhe.NewEvaluator(testEK))
	big := Int{Digits: make([]tfhe.LWECiphertext, opSpace)}
	for i := range big.Digits {
		x, _ := Encrypt(rng, testSK, 0, 1)
		big.Digits[i] = x.Digits[0]
	}
	if _, err := ev.IsEqual(big, big); err == nil {
		t.Error("equality over too many digits should error")
	}
}

func TestLessThan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ev := New(tfhe.NewEvaluator(testEK))
	cases := []struct {
		a, b int
		lt   int
	}{{0, 1, 1}, {1, 0, 0}, {5, 5, 0}, {41, 42, 1}, {42, 41, 0}, {0, 63, 1}, {63, 0, 0}, {16, 17, 1}, {31, 32, 1}}
	for _, c := range cases {
		x, _ := Encrypt(rng, testSK, c.a, 3)
		y, _ := Encrypt(rng, testSK, c.b, 3)
		res, err := ev.LessThan(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecryptBit(testSK, res); got != c.lt {
			t.Errorf("LessThan(%d,%d) = %d, want %d", c.a, c.b, got, c.lt)
		}
	}
}

func TestPBSCountPerAdd(t *testing.T) {
	// 3-digit add: 2 PBS for digits 0,1 (carry+digit) + 1 for digit 2.
	rng := rand.New(rand.NewSource(9))
	ev := New(tfhe.NewEvaluator(testEK))
	x, _ := Encrypt(rng, testSK, 5, 3)
	y, _ := Encrypt(rng, testSK, 6, 3)
	before := ev.Eval.Counters.PBSCount
	if _, err := ev.Add(x, y); err != nil {
		t.Fatal(err)
	}
	if got := ev.Eval.Counters.PBSCount - before; got != 5 {
		t.Errorf("3-digit add used %d bootstraps, want 5", got)
	}
}

// --- scheduler/sequential equivalence harness ---

// sameInt compares two encrypted integers bitwise.
func sameInt(a, b Int) bool {
	if a.NumDigits() != b.NumDigits() {
		return false
	}
	for i := range a.Digits {
		if a.Digits[i].N() != b.Digits[i].N() || a.Digits[i].B != b.Digits[i].B {
			return false
		}
		for j := range a.Digits[i].A {
			if a.Digits[i].A[j] != b.Digits[i].A[j] {
				return false
			}
		}
	}
	return true
}

// TestScheduledEquivalence runs every operation on both backends over the
// same ciphertexts and requires bitwise-identical outputs (and correct
// plaintexts) — the contract that lets workloads switch freely between
// the sequential evaluator and the engine scheduler.
func TestScheduledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seq := New(tfhe.NewEvaluator(testEK))
	par := scheduledEvaluator()

	vals := [][2]int{{13, 42}, {0, 63}, {63, 63}, {7, 7}}
	for _, v := range vals {
		x, _ := Encrypt(rng, testSK, v[0], 3)
		y, _ := Encrypt(rng, testSK, v[1], 3)

		sSum, err1 := seq.Add(x, y)
		pSum, err2 := par.Add(x, y)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !sameInt(sSum, pSum) {
			t.Errorf("Add(%d,%d): scheduled differs from sequential", v[0], v[1])
		}
		if got := Decrypt(testSK, pSum); got != (v[0]+v[1])%64 {
			t.Errorf("Add(%d,%d) = %d", v[0], v[1], got)
		}

		sProd, err1 := seq.Mul(x, y)
		pProd, err2 := par.Mul(x, y)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !sameInt(sProd, pProd) {
			t.Errorf("Mul(%d,%d): scheduled differs from sequential", v[0], v[1])
		}
		if got := Decrypt(testSK, pProd); got != (v[0]*v[1])%64 {
			t.Errorf("Mul(%d,%d) = %d", v[0], v[1], got)
		}

		for name, op := range map[string]func(*Evaluator) (tfhe.LWECiphertext, error){
			"IsEqual":  func(e *Evaluator) (tfhe.LWECiphertext, error) { return e.IsEqual(x, y) },
			"LessThan": func(e *Evaluator) (tfhe.LWECiphertext, error) { return e.LessThan(x, y) },
		} {
			sc, err1 := op(seq)
			pc, err2 := op(par)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !sameInt(Int{Digits: []tfhe.LWECiphertext{sc}}, Int{Digits: []tfhe.LWECiphertext{pc}}) {
				t.Errorf("%s(%d,%d): scheduled differs from sequential", name, v[0], v[1])
			}
		}
	}

	x, _ := Encrypt(rng, testSK, 29, 3)
	sa, _ := seq.AddScalar(x, 44)
	pa, _ := par.AddScalar(x, 44)
	if !sameInt(sa, pa) {
		t.Error("AddScalar: scheduled differs from sequential")
	}
	sm, _ := seq.MulScalar(x, 6)
	pm, _ := par.MulScalar(x, 6)
	if !sameInt(sm, pm) {
		t.Error("MulScalar: scheduled differs from sequential")
	}
}

// --- edge cases (scheduler/sequential harness) ---

func TestZeroDigitInts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, err := Encrypt(rng, testSK, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decrypt(testSK, x); got != 0 {
		t.Errorf("zero-digit decrypt = %d", got)
	}
	for name, ev := range map[string]*Evaluator{"seq": New(tfhe.NewEvaluator(testEK)), "sched": scheduledEvaluator()} {
		sum, err := ev.Add(x, x)
		if err != nil || sum.NumDigits() != 0 {
			t.Errorf("%s: zero-digit add: %v, %d digits", name, err, sum.NumDigits())
		}
		prod, err := ev.Mul(x, x)
		if err != nil || prod.NumDigits() != 0 {
			t.Errorf("%s: zero-digit mul: %v, %d digits", name, err, prod.NumDigits())
		}
		if _, err := ev.IsEqual(x, x); err == nil {
			t.Errorf("%s: zero-digit IsEqual should error (no ciphertext to return)", name)
		}
		if _, err := ev.LessThan(x, x); err == nil {
			t.Errorf("%s: zero-digit LessThan should error", name)
		}
	}
}

func TestMaxValueCarryOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	seq := New(tfhe.NewEvaluator(testEK))
	par := scheduledEvaluator()
	// 63+63 wraps to 62; 63+1 wraps to 0 — the longest carry chains.
	cases := [][3]int{{63, 63, 62}, {63, 1, 0}, {62, 1, 63}, {48, 16, 0}}
	for _, c := range cases {
		x, _ := Encrypt(rng, testSK, c[0], 3)
		y, _ := Encrypt(rng, testSK, c[1], 3)
		s, err := seq.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		p, err := par.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := Decrypt(testSK, s); got != c[2] {
			t.Errorf("seq %d+%d = %d, want %d", c[0], c[1], got, c[2])
		}
		if !sameInt(s, p) {
			t.Errorf("overflow add %d+%d: scheduled differs from sequential", c[0], c[1])
		}
	}
}

func TestMixedWidthCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x, _ := Encrypt(rng, testSK, 3, 2)
	y, _ := Encrypt(rng, testSK, 3, 3)
	for name, ev := range map[string]*Evaluator{"seq": New(tfhe.NewEvaluator(testEK)), "sched": scheduledEvaluator()} {
		if _, err := ev.IsEqual(x, y); err == nil {
			t.Errorf("%s: mixed-width IsEqual should error", name)
		}
		if _, err := ev.LessThan(x, y); err == nil {
			t.Errorf("%s: mixed-width LessThan should error", name)
		}
	}
}

// TestMulSchedulePlan pins the multiply's schedule shape: the partial
// products form one wide first level (2·n²−n LUT nodes minus the
// truncated highs), and the plan PBS total matches what actually runs.
func TestMulSchedulePlan(t *testing.T) {
	b := sched.NewBuilder()
	xw := b.Inputs(3)
	yw := b.Inputs(3)
	b.Output(BuildMul(b, xw, yw)...)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sched.Compile(circ, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sch.Stats()
	// n=3: 6 lows + 3 highs = 9 pair LUTs, all level 1.
	if st.MaxLevelPBS < 9 {
		t.Errorf("first level should hold ≥9 parallel pair LUTs, max level = %d", st.MaxLevelPBS)
	}
	eng := engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})
	eng.ResetCounters()
	rng := rand.New(rand.NewSource(53))
	x, _ := Encrypt(rng, testSK, 10, 3)
	y, _ := Encrypt(rng, testSK, 9, 3)
	r := &sched.Runner{Stream: eng}
	if _, err := r.Run(circ, sched.Config{}, append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Counters().PBSCount; got != int64(st.TotalPBS) {
		t.Errorf("engine ran %d PBS, plan says %d", got, st.TotalPBS)
	}
}

// TestZeroDigitBuilders pins the degenerate builder behavior directly:
// zero-digit comparison circuits degrade to constants (1 for equality, 0
// for less-than) instead of panicking, even without the Evaluator guard.
func TestZeroDigitBuilders(t *testing.T) {
	b := sched.NewBuilder()
	anchor := b.Input() // fixes the LWE dimension for the constant nodes
	eq := BuildIsEqual(b, nil, nil)
	lt := BuildLessThan(b, nil, nil)
	b.Output(anchor, eq, lt)
	circ, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	x, _ := Encrypt(rng, testSK, 1, 1)
	outs, err := sched.RunSequential(circ, tfhe.NewEvaluator(testEK), x.Digits)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecryptBit(testSK, outs[1]); got != 1 {
		t.Errorf("zero-digit IsEqual constant = %d, want 1", got)
	}
	if got := DecryptBit(testSK, outs[2]); got != 0 {
		t.Errorf("zero-digit LessThan constant = %d, want 0", got)
	}
}

// TestOptimizedEvaluator runs add and mul through the optimizing
// scheduled backend: the pass pipeline rewrites the digit circuits
// (fusing LUT chains and packing carry/digit fan-out) and the results
// still decrypt to the right values on every backend-visible operation.
func TestOptimizedEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ev := NewOptimized(&sched.Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}, tfhe.ParamsTest)
	for _, c := range [][2]int{{0, 0}, {5, 9}, {27, 45}, {63, 63}} {
		x, _ := Encrypt(rng, testSK, c[0], 3)
		y, _ := Encrypt(rng, testSK, c[1], 3)
		sum, err := ev.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Decrypt(testSK, sum), (c[0]+c[1])%64; got != want {
			t.Errorf("optimized %d+%d = %d, want %d", c[0], c[1], got, want)
		}
		prod, err := ev.Mul(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Decrypt(testSK, prod), (c[0]*c[1])%64; got != want {
			t.Errorf("optimized %d*%d = %d, want %d", c[0], c[1], got, want)
		}
	}
}
