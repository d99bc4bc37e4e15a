package intops

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/tfhe"
)

var (
	testSK tfhe.SecretKeys
	testEK tfhe.EvaluationKeys
	// radix is the test set's: base 4 over space 16.
	radix = Radix{4}
)

func init() {
	rng := rand.New(rand.NewSource(31))
	testSK, testEK = tfhe.GenerateKeys(rng, tfhe.ParamsTest)
}

// addCircuit is the standalone n-digit addition circuit: inputs are x's
// digits then y's, outputs the sum's digits.
func addCircuit(t *testing.T, n int) *sched.Circuit {
	t.Helper()
	c, err := binaryCircuit(n, radix.BuildAdd)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mulCircuit is r.MulCircuit(n), failing the test on error.
func mulCircuit(t *testing.T, r Radix, n int) *sched.Circuit {
	t.Helper()
	c, err := r.MulCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestForChoosesFromTheRule pins the radix the one noise rule chooses at
// every parameter set, without keys: base 4 over space 16 where the rule
// admits its worst digit lookup, else base 2 over space 4. Every multiply
// up to 4 digits at the chosen radix passes the rule, and the next larger
// base does not.
func TestForChoosesFromTheRule(t *testing.T) {
	for b, space := range map[int]int{2: 4, 3: 16, 4: 16} {
		if got := (Radix{b}).Space(); got != space {
			t.Errorf("radix %d: space %d, want %d", b, got, space)
		}
	}
	for _, tc := range []struct {
		p           tfhe.Params
		base, space int
	}{
		{tfhe.ParamsTest, 4, 16},
		{tfhe.ParamsI, 2, 4},
		{tfhe.ParamsII, 2, 4},
		{tfhe.ParamsIII, 2, 4},
		{tfhe.ParamsIV, 2, 4},
	} {
		r, err := For(tc.p)
		if err != nil || r.Base() != tc.base || r.Space() != tc.space {
			t.Errorf("For(set %s) = base %d, space %d, %v; want base %d, space %d",
				tc.p.Name, r.Base(), r.Space(), err, tc.base, tc.space)
			continue
		}
		for n := 1; n <= 4; n++ {
			if err := r.check(n, tc.p); err != nil {
				t.Errorf("set %s: %d-digit multiply at base %d: %v", tc.p.Name, n, r.Base(), err)
			}
		}
		if r.Base() < 4 {
			var budget *noise.BudgetError
			if err := (Radix{r.Base() + 1}).check(3, tc.p); !errors.As(err, &budget) {
				t.Errorf("set %s: base %d: %v, want a noise refusal", tc.p.Name, r.Base()+1, err)
			}
		}
	}
	if _, err := For(tfhe.Params{}); err == nil {
		t.Error("For admitted a radix under the zero Params")
	}
}

// newRunner returns a scheduled runner over a fresh streaming engine
// (two workers keep the tests fast).
func newRunner() *sched.Runner {
	return &sched.Runner{Stream: engine.NewStreaming(testEK, engine.StreamConfig{RotateWorkers: 2})}
}

// operands concatenates x's and y's digits: a binary circuit's inputs.
func operands(x, y Int) []tfhe.LWECiphertext {
	return append(append([]tfhe.LWECiphertext{}, x.Digits...), y.Digits...)
}

// runSeq runs c node by node on ev over x and y.
func runSeq(ev *tfhe.Evaluator, c *sched.Circuit, x, y Int) (Int, error) {
	out, err := sched.RunSequential(c, ev, operands(x, y))
	return Int{Digits: out}, err
}

// runSched runs c through r, compiled as built (cfg zero) or optimized.
func runSched(r *sched.Runner, cfg sched.Config, c *sched.Circuit, x, y Int) (Int, error) {
	out, err := r.Run(c, cfg, operands(x, y))
	return Int{Digits: out}, err
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []int{0, 1, 7, 42, 63} {
		x, err := radix.Encrypt(rng, testSK, v, 3) // 3 digits: 0..63
		if err != nil {
			t.Fatal(err)
		}
		if got := radix.Decrypt(testSK, x); got != v {
			t.Errorf("roundtrip(%d) = %d", v, got)
		}
	}
}

func TestEncryptRangeCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := radix.Encrypt(rng, testSK, 64, 3); err == nil {
		t.Error("64 does not fit 3 radix-4 digits")
	}
	if _, err := radix.Encrypt(rng, testSK, -1, 3); err == nil {
		t.Error("negative should error")
	}
}

func TestMaxValue(t *testing.T) {
	if radix.MaxValue(3) != 63 || radix.MaxValue(1) != 3 {
		t.Errorf("MaxValue wrong: %d, %d", radix.MaxValue(3), radix.MaxValue(1))
	}
}

func TestAddWithCarryChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ev := tfhe.NewEvaluator(testEK)
	add := addCircuit(t, 3)
	cases := [][2]int{{5, 7}, {0, 0}, {63, 1}, {21, 42}, {33, 31}}
	for _, c := range cases {
		x, _ := radix.Encrypt(rng, testSK, c[0], 3)
		y, _ := radix.Encrypt(rng, testSK, c[1], 3)
		sum, err := runSeq(ev, add, x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := (c[0] + c[1]) % 64
		if got := radix.Decrypt(testSK, sum); got != want {
			t.Errorf("%d+%d = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// TestAddDigitMismatch: operands of different widths do not fit a circuit
// built for either width, and both runners refuse the input count.
func TestAddDigitMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, _ := radix.Encrypt(rng, testSK, 1, 2)
	y, _ := radix.Encrypt(rng, testSK, 1, 3)
	add := addCircuit(t, x.NumDigits())
	if _, err := runSeq(tfhe.NewEvaluator(testEK), add, x, y); err == nil {
		t.Error("sequential: digit mismatch should error")
	}
	if _, err := runSched(newRunner(), sched.Config{}, add, x, y); err == nil {
		t.Error("scheduled: digit mismatch should error")
	}
}

// TestMul multiplies at the test set's radix and at base 2, whose
// multiply builds no high partial products.
func TestMul(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ev := tfhe.NewEvaluator(testEK)
	for _, r := range []Radix{radix, Radix{2}} {
		mul := mulCircuit(t, r, 3)
		mod := r.MaxValue(3) + 1
		cases := [][2]int{{0, 0}, {1, 7}, {5, 9}, {11, 13}, {63, 63}, {63, 1}, {8, 8}}
		for _, c := range cases {
			x, _ := r.Encrypt(rng, testSK, c[0]%mod, 3)
			y, _ := r.Encrypt(rng, testSK, c[1]%mod, 3)
			prod, err := runSeq(ev, mul, x, y)
			if err != nil {
				t.Fatal(err)
			}
			want := (c[0] % mod) * (c[1] % mod) % mod
			if got := r.Decrypt(testSK, prod); got != want {
				t.Errorf("base %d: %d*%d = %d, want %d", r.Base(), c[0]%mod, c[1]%mod, got, want)
			}
		}
	}
	x, _ := radix.Encrypt(rng, testSK, 1, 2)
	y, _ := radix.Encrypt(rng, testSK, 1, 3)
	if _, err := runSeq(ev, mulCircuit(t, radix, 2), x, y); err == nil {
		t.Error("digit mismatch should error")
	}
}

func TestPBSCountPerAdd(t *testing.T) {
	// 3-digit add: 2 PBS for digits 0,1 (carry+digit) + 1 for digit 2.
	rng := rand.New(rand.NewSource(9))
	ev := tfhe.NewEvaluator(testEK)
	x, _ := radix.Encrypt(rng, testSK, 5, 3)
	y, _ := radix.Encrypt(rng, testSK, 6, 3)
	before := ev.Counters.PBSCount
	if _, err := runSeq(ev, addCircuit(t, 3), x, y); err != nil {
		t.Fatal(err)
	}
	if got := ev.Counters.PBSCount - before; got != 5 {
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

// TestScheduledEquivalence runs the add and multiply circuits node by
// node and through a sched.Runner over the same ciphertexts and requires
// bitwise-identical outputs (and correct plaintexts): the contract that
// lets a circuit move between the sequential evaluator and the engine.
func TestScheduledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seq := tfhe.NewEvaluator(testEK)
	par := newRunner()
	circuits := []struct {
		name string
		c    *sched.Circuit
		want func(x, y int) int
	}{
		{"Add", addCircuit(t, 3), func(x, y int) int { return (x + y) % 64 }},
		{"Mul", mulCircuit(t, radix, 3), func(x, y int) int { return (x * y) % 64 }},
	}

	vals := [][2]int{{13, 42}, {0, 63}, {63, 63}, {7, 7}}
	for _, v := range vals {
		x, _ := radix.Encrypt(rng, testSK, v[0], 3)
		y, _ := radix.Encrypt(rng, testSK, v[1], 3)
		for _, op := range circuits {
			s, err1 := runSeq(seq, op.c, x, y)
			p, err2 := runSched(par, sched.Config{}, op.c, x, y)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !sameInt(s, p) {
				t.Errorf("%s(%d,%d): scheduled differs from sequential", op.name, v[0], v[1])
			}
			if got := radix.Decrypt(testSK, p); got != op.want(v[0], v[1]) {
				t.Errorf("%s(%d,%d) = %d", op.name, v[0], v[1], got)
			}
		}
	}
}

// --- edge cases (scheduler/sequential harness) ---

func TestZeroDigitInts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, err := radix.Encrypt(rng, testSK, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := radix.Decrypt(testSK, x); got != 0 {
		t.Errorf("zero-digit decrypt = %d", got)
	}
	seq := tfhe.NewEvaluator(testEK)
	par := newRunner()
	for name, c := range map[string]*sched.Circuit{"add": addCircuit(t, 0), "mul": mulCircuit(t, radix, 0)} {
		out, err := runSeq(seq, c, x, x)
		if err != nil || out.NumDigits() != 0 {
			t.Errorf("seq: zero-digit %s: %v, %d digits", name, err, out.NumDigits())
		}
		out, err = runSched(par, sched.Config{}, c, x, x)
		if err != nil || out.NumDigits() != 0 {
			t.Errorf("sched: zero-digit %s: %v, %d digits", name, err, out.NumDigits())
		}
	}
}

func TestMaxValueCarryOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	seq := tfhe.NewEvaluator(testEK)
	par := newRunner()
	add := addCircuit(t, 3)
	// 63+63 wraps to 62; 63+1 wraps to 0 — the longest carry chains.
	cases := [][3]int{{63, 63, 62}, {63, 1, 0}, {62, 1, 63}, {48, 16, 0}}
	for _, c := range cases {
		x, _ := radix.Encrypt(rng, testSK, c[0], 3)
		y, _ := radix.Encrypt(rng, testSK, c[1], 3)
		s, err := runSeq(seq, add, x, y)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runSched(par, sched.Config{}, add, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := radix.Decrypt(testSK, s); got != c[2] {
			t.Errorf("seq %d+%d = %d, want %d", c[0], c[1], got, c[2])
		}
		if !sameInt(s, p) {
			t.Errorf("overflow add %d+%d: scheduled differs from sequential", c[0], c[1])
		}
	}
}

// TestMulSchedulePlan pins the multiply's schedule shape. The plan's
// levels are ranks, the longest PBS path to an output, so the partial
// products (n=3: 6 lows + 3 highs = 9 pair LUTs, all ready at once) spread
// over the levels by how far each is from the product: level 1 is the one
// lookup that heads the longest chain. The plan PBS total matches what
// actually runs.
func TestMulSchedulePlan(t *testing.T) {
	circ := mulCircuit(t, radix, 3)
	sch, err := sched.Compile(circ, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sch.Stats()
	var widths []int
	for _, lv := range sch.Levels() {
		widths = append(widths, lv.PBS)
	}
	if st.Levels != 5 || st.TotalPBS != 19 || !slices.Equal(widths, []int{1, 5, 7, 3, 3}) {
		t.Errorf("plan %v: %d levels of %v PBS, want 5 levels of [1 5 7 3 3], 19 PBS", sch, st.Levels, widths)
	}
	r := newRunner()
	r.Stream.ResetCounters()
	rng := rand.New(rand.NewSource(53))
	x, _ := radix.Encrypt(rng, testSK, 10, 3)
	y, _ := radix.Encrypt(rng, testSK, 9, 3)
	if _, err := runSched(r, sched.Config{}, circ, x, y); err != nil {
		t.Fatal(err)
	}
	if got := r.Stream.Counters().PBSCount; got != int64(st.TotalPBS) {
		t.Errorf("engine ran %d PBS, plan says %d", got, st.TotalPBS)
	}
}

// TestOptimizedEvaluator runs add and mul through a Runner with the full
// optimizer pipeline, which Runner.Run compiles for the runner's
// parameter set: the passes rewrite the digit circuits and the results
// still decrypt to the right values. At the test set the noise rule
// admits no packed group on these circuits' space-16 LUTs, so nothing
// packs.
func TestOptimizedEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := newRunner()
	cfg := sched.Config{Opt: sched.OptAll()}
	add, mul := addCircuit(t, 3), mulCircuit(t, radix, 3)
	for _, c := range [][2]int{{0, 0}, {5, 9}, {27, 45}, {63, 63}} {
		x, _ := radix.Encrypt(rng, testSK, c[0], 3)
		y, _ := radix.Encrypt(rng, testSK, c[1], 3)
		sum, err := runSched(r, cfg, add, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := radix.Decrypt(testSK, sum), (c[0]+c[1])%64; got != want {
			t.Errorf("optimized %d+%d = %d, want %d", c[0], c[1], got, want)
		}
		prod, err := runSched(r, cfg, mul, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := radix.Decrypt(testSK, prod), (c[0]*c[1])%64; got != want {
			t.Errorf("optimized %d*%d = %d, want %d", c[0], c[1], got, want)
		}
	}
}
