package tfhe

import (
	"math/rand"
	"testing"
)

// sameLWE compares two LWE ciphertexts bitwise.
func sameLWE(a, b LWECiphertext) bool { return EqualLWE(a, b) }

func TestValidateMultiLUT(t *testing.T) {
	p := ParamsTest // N = 256
	cases := []struct {
		space, k int
		ok       bool
	}{
		{4, 1, true},
		{4, 4, true},
		{4, 64, true},  // space·k = N exactly
		{4, 65, false}, // space·k > N
		{2, 128, true},
		{1, 4, false}, // space too small
		{4, 0, false}, // no tables
		{256, 2, false},
	}
	for _, tc := range cases {
		err := p.ValidateMultiLUT(tc.space, tc.k)
		if (err == nil) != tc.ok {
			t.Errorf("ValidateMultiLUT(space=%d, k=%d) = %v, want ok=%v", tc.space, tc.k, err, tc.ok)
		}
	}
}

func TestMultiLUTOffsets(t *testing.T) {
	p := ParamsTest // N = 256
	got := p.MultiLUTOffsets(4, 4)
	want := []int{0, 16, 32, 48} // subslot width N/(space·k) = 16
	if len(got) != len(want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", got, want)
		}
	}
}

// TestSampleExtractAt verifies the offset extraction against decryption:
// coefficient t of the message polynomial must decrypt out of the
// extracted LWE ciphertext under the extracted key, for every offset.
func TestSampleExtractAt(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	space := 8
	ev := NewEvaluator(testEK)
	f := func(m int) int { return (3 * m) % space }
	tv := ev.LUTTestVector(space, []func(int) int{f}) // trivial GLWE: mask 0, body = table
	// Add encryption noise so the mask actually participates.
	enc := testSK.GLWE.EncryptZero(rng, ParamsTest.GLWEStdDev)
	addGLWE(enc, tv)
	for _, off := range []int{0, 1, 17, ParamsTest.N / 2, ParamsTest.N - 1} {
		out := SampleExtractAt(enc, off)
		wantMsg := f(off * space / ParamsTest.N % space)
		if got := DecodePBSMessage(testSK.BigLWE.Phase(out), space); got != wantMsg {
			t.Fatalf("extract at %d decrypts to %d, want %d", off, got, wantMsg)
		}
	}
}

// TestSampleExtractAtZeroMatchesSampleExtract pins the t=0 special case
// to the classic extraction bitwise.
func TestSampleExtractAtZeroMatchesSampleExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	enc := testSK.GLWE.EncryptZero(rng, ParamsTest.GLWEStdDev)
	if !sameLWE(SampleExtract(enc), SampleExtractAt(enc, 0)) {
		t.Fatal("SampleExtractAt(c, 0) differs from SampleExtract(c)")
	}
}

// TestMultiLUTPackingLayout checks the packed test vector coefficient by
// coefficient against the documented subslot layout.
func TestMultiLUTPackingLayout(t *testing.T) {
	ev := NewEvaluator(testEK)
	space, k := 4, 2
	fs := []func(int) int{
		func(m int) int { return m },
		func(m int) int { return (m + 1) % space },
	}
	tv := ev.LUTTestVector(space, fs)
	body := tv.Body()
	n := ParamsTest.N
	for j := 0; j < n; j++ {
		fine := j * space * k / n
		want := EncodePBSMessage(fs[fine%k](fine/k), space)
		if body.Coeffs[j] != want {
			t.Fatalf("packed coeff %d = %d, want %d (window %d subslot %d)", j, body.Coeffs[j], want, fine/k, fine%k)
		}
	}
	for i := 0; i < tv.K(); i++ {
		for j := 0; j < n; j++ {
			if tv.Polys[i].Coeffs[j] != 0 {
				t.Fatal("packed test vector mask must be trivial (zero)")
			}
		}
	}
}

// TestEvalMultiLUTSingleTableBitwiseEqualsEvalLUT is the k=1 degeneration
// contract: a one-table EvalLUT is, bit for bit, the plain bootstrap the
// stage primitives compose — the half-slot shift, the one-table test
// vector, one rotation and the extraction at offset 0 — counting the same.
func TestEvalMultiLUTSingleTableBitwiseEqualsEvalLUT(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	space := 8
	fs := []func(int) int{func(m int) int { return (m*m + 1) % space }}
	if off := ParamsTest.MultiLUTOffsets(space, 1); len(off) != 1 || off[0] != 0 {
		t.Fatalf("one-table offsets = %v, want [0]", off)
	}
	for m := 0; m < space; m++ {
		c := testSK.LWE.Encrypt(rng, EncodePBSMessage(m, space), ParamsTest.LWEStdDev)
		evA := NewEvaluator(testEK)
		evB := NewEvaluator(testEK)
		group := evA.EvalLUT(c, space, fs)
		plain := evB.Bootstrap(evB.ShiftForLUT(c, space, 1), evB.LUTTestVector(space, fs))
		if len(group) != 1 || !sameLWE(group[0], plain) {
			t.Fatalf("m=%d: one-table EvalLUT not bitwise equal to Bootstrap of the shifted input", m)
		}
		if evA.Counters != evB.Counters {
			t.Fatalf("m=%d: one-table EvalLUT counts %+v, the plain bootstrap %+v", m, evA.Counters, evB.Counters)
		}
	}
}

// TestEvalMultiLUTDecodesLikeIndependentLUTs is the semantic contract of
// multi-value PBS: for every message in the space and every packed output
// index, the multi-value result decodes to exactly what an independent
// EvalLUT of that table decodes to (and to the plaintext table value).
// The cases keep space·k ≤ 16, shapes the one noise rule admits at the
// test set; it refuses four space-8 tables there (noise.TestCheck), which
// decode wrong about once in 40 groups.
func TestEvalMultiLUTDecodesLikeIndependentLUTs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ev := NewEvaluator(testEK)
	ref := NewEvaluator(testEK)
	for _, tc := range []struct {
		space int
		k     int
	}{
		{4, 2}, {4, 4}, {8, 2}, {2, 3},
	} {
		fs := make([]func(int) int, tc.k)
		for i := range fs {
			i := i
			fs[i] = func(m int) int { return (m*m + i) % tc.space }
		}
		for m := 0; m < tc.space; m++ {
			c := testSK.LWE.Encrypt(rng, EncodePBSMessage(m, tc.space), ParamsTest.LWEStdDev)
			outs := ev.EvalLUTKS(c, tc.space, fs)
			if len(outs) != tc.k {
				t.Fatalf("space=%d k=%d: got %d outputs", tc.space, tc.k, len(outs))
			}
			for i, out := range outs {
				got := DecodePBSMessage(testSK.LWE.Phase(out), tc.space)
				indep := ref.EvalLUTKS(c, tc.space, fs[i:i+1])[0]
				want := DecodePBSMessage(testSK.LWE.Phase(indep), tc.space)
				if want != fs[i](m) {
					t.Fatalf("space=%d k=%d m=%d: independent EvalLUT decodes to %d, want %d", tc.space, tc.k, m, want, fs[i](m))
				}
				if got != want {
					t.Fatalf("space=%d k=%d m=%d output %d: multi-value decodes to %d, independent EvalLUT to %d", tc.space, tc.k, m, i, got, want)
				}
			}
		}
	}
}

// TestEvalMultiLUTChained checks that keyswitched multi-value outputs are
// bootstrappable again — the fan-out feeds the next circuit level.
func TestEvalMultiLUTChained(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ev := NewEvaluator(testEK)
	space := 4
	fs := []func(int) int{
		func(m int) int { return (m + 1) % space },
		func(m int) int { return (3 * m) % space },
	}
	c := testSK.LWE.Encrypt(rng, EncodePBSMessage(2, space), ParamsTest.LWEStdDev)
	outs := ev.EvalLUTKS(c, space, fs)
	next := ev.EvalLUTKS(outs[1], space, []func(int) int{func(m int) int { return (m + 1) % space }})[0]
	// (3·2 mod 4) + 1 = 3
	if got := DecodePBSMessage(testSK.LWE.Phase(next), space); got != 3 {
		t.Fatalf("chained multi-value output decodes to %d, want 3", got)
	}
}

// TestMultiValueCounters pins the rotation accounting: a k-output
// multi-value bootstrap costs one PBS (one rotation) and records the
// fan-out, and a one-table group counts as the plain lookup.
func TestMultiValueCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ev := NewEvaluator(testEK)
	space, k := 4, 4
	fs := make([]func(int) int, k)
	for i := range fs {
		i := i
		fs[i] = func(m int) int { return (m + i) % space }
	}
	c := testSK.LWE.Encrypt(rng, EncodePBSMessage(1, space), ParamsTest.LWEStdDev)
	ev.EvalLUTKS(c, space, fs)
	cnt := ev.Counters
	if cnt.PBSCount != 1 || cnt.MultiValuePBS != 1 || cnt.MultiValueOuts != int64(k) {
		t.Fatalf("counters after one k=%d multi-value PBS: %+v", k, cnt)
	}
	if cnt.SampleExtracts != int64(k) || cnt.KSCount != int64(k) {
		t.Fatalf("want %d extracts and keyswitches, got %+v", k, cnt)
	}

	// k = 1: a one-table group is the plain lookup, and counts exactly
	// what its shift, bootstrap and keyswitch count — no multi-value PBS.
	one, plain := NewEvaluator(testEK), NewEvaluator(testEK)
	one.EvalLUTKS(c, space, fs[:1])
	plain.KeySwitch(plain.Bootstrap(plain.ShiftForLUT(c, space, 1), plain.LUTTestVector(space, fs[:1])))
	if one.Counters != plain.Counters {
		t.Fatalf("one-table group counts %+v, the plain lookup %+v", one.Counters, plain.Counters)
	}
	if one.Counters.MultiValuePBS != 0 || one.Counters.MultiValueOuts != 0 {
		t.Fatalf("one-table group counted as multi-value: %+v", one.Counters)
	}
}

func TestNewMultiLUTTestVectorRejectsOverpacking(t *testing.T) {
	ev := NewEvaluator(testEK)
	fs := make([]func(int) int, ParamsTest.N) // space·k = 2N > N
	for i := range fs {
		fs[i] = func(m int) int { return m }
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for space·k > N")
		}
	}()
	ev.LUTTestVector(2, fs)
}
