package engine

import (
	"math/rand"
	"testing"

	"repro/internal/tfhe"
)

// multiLUTSetup returns a deterministic key set plus PBS-encoded integer
// ciphertexts and their plaintexts.
func multiLUTSetup(t testing.TB, seed int64, batch, space int) (tfhe.SecretKeys, tfhe.EvaluationKeys, []tfhe.LWECiphertext, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	cts := make([]tfhe.LWECiphertext, batch)
	pts := make([]int, batch)
	for i := range cts {
		pts[i] = rng.Intn(space)
		cts[i] = sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(pts[i], space), tfhe.ParamsTest.LWEStdDev)
	}
	return sk, ek, cts, pts
}

// multiTables builds k distinct test tables over space.
func multiTables(space, k int) []func(int) int {
	fs := make([]func(int) int, k)
	for i := range fs {
		i := i
		fs[i] = func(m int) int { return (m*m + i) % space }
	}
	return fs
}

// TestBatchMultiLUTMatchesSequential: the worker pool must reproduce the
// sequential multi-value path bitwise for any worker count, and decode to
// the plaintext tables.
func TestBatchMultiLUTMatchesSequential(t *testing.T) {
	const space, k, batch = 4, 4, 10
	sk, ek, cts, pts := multiLUTSetup(t, 51, batch, space)
	fs := multiTables(space, k)

	ev := tfhe.NewEvaluator(ek)
	want := make([][]tfhe.LWECiphertext, batch)
	for i, ct := range cts {
		want[i] = ev.EvalMultiLUTKS(ct, space, fs)
	}

	for _, workers := range []int{1, 3, 8} {
		eng := New(ek, Config{Workers: workers})
		got, err := eng.BatchMultiLUT(cts, space, fs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if len(got[i]) != k {
				t.Fatalf("workers=%d: item %d has %d outputs, want %d", workers, i, len(got[i]), k)
			}
			for j := range got[i] {
				if !ctEqual(got[i][j], want[i][j]) {
					t.Fatalf("workers=%d: output [%d][%d] differs from sequential", workers, i, j)
				}
				if dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[i][j]), space); dec != fs[j](pts[i]) {
					t.Fatalf("workers=%d: output [%d][%d] decodes to %d, want %d", workers, i, j, dec, fs[j](pts[i]))
				}
			}
		}
	}
}

// TestStreamMultiLUTMatchesSequential: the staged pipeline must reproduce
// the sequential multi-value path bitwise for several stage widths.
func TestStreamMultiLUTMatchesSequential(t *testing.T) {
	const space, k, batch = 8, 2, 12
	_, ek, cts, _ := multiLUTSetup(t, 52, batch, space)
	fs := multiTables(space, k)

	ev := tfhe.NewEvaluator(ek)
	want := make([][]tfhe.LWECiphertext, batch)
	for i, ct := range cts {
		want[i] = ev.EvalMultiLUTKS(ct, space, fs)
	}

	for _, cfg := range []StreamConfig{
		{RotateWorkers: 1, KSWorkers: 1},
		{RotateWorkers: 3, KSWorkers: 2},
		{RotateWorkers: 8, KSWorkers: 3},
	} {
		s := NewStreaming(ek, cfg)
		got, err := s.StreamMultiLUT(cts, space, fs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for j := range got[i] {
				if !ctEqual(got[i][j], want[i][j]) {
					t.Fatalf("rotate=%d ks=%d: output [%d][%d] differs from sequential", cfg.RotateWorkers, cfg.KSWorkers, i, j)
				}
			}
		}
	}
}

// TestMultiLUTSavesRotations pins the whole point: k outputs per item for
// one rotation each, versus k rotations on the per-output path.
func TestMultiLUTSavesRotations(t *testing.T) {
	const space, k, batch = 4, 4, 6
	_, ek, cts, _ := multiLUTSetup(t, 53, batch, space)
	fs := multiTables(space, k)

	eng := New(ek, Config{Workers: 2})
	if _, err := eng.BatchMultiLUT(cts, space, fs); err != nil {
		t.Fatal(err)
	}
	c := eng.Counters()
	if c.PBSCount != batch {
		t.Fatalf("multi-value batch of %d items ran %d rotations, want %d", batch, c.PBSCount, batch)
	}
	if c.MultiValueOuts != batch*k || c.KSCount != batch*k {
		t.Fatalf("want %d outputs and keyswitches, got %+v", batch*k, c)
	}
}

// TestMultiLUTValidation: both engines must reject un-packable requests
// and bad dimensions before any worker starts.
func TestMultiLUTValidation(t *testing.T) {
	_, ek, cts, _ := multiLUTSetup(t, 54, 2, 4)
	eng := New(ek, Config{Workers: 1})
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 1})

	over := make([]func(int) int, tfhe.ParamsTest.N) // space·k > N
	for i := range over {
		over[i] = func(m int) int { return m }
	}
	if _, err := eng.BatchMultiLUT(cts, 2, over); err == nil {
		t.Fatal("BatchMultiLUT accepted space·k > N")
	}
	if _, err := s.StreamMultiLUT(cts, 2, over); err == nil {
		t.Fatal("StreamMultiLUT accepted space·k > N")
	}
	if _, err := eng.BatchMultiLUT(cts, 1, multiTables(4, 2)); err == nil {
		t.Fatal("BatchMultiLUT accepted space < 2")
	}

	bad := []tfhe.LWECiphertext{tfhe.NewLWECiphertext(tfhe.ParamsTest.SmallN + 1)}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("BatchMultiLUT accepted a wrong-dimension ciphertext")
			}
		}()
		_, _ = eng.BatchMultiLUT(bad, 4, multiTables(4, 2))
	}()
}

// TestStreamMultiLUTEmpty: a zero-length stream completes and returns an
// empty result.
func TestStreamMultiLUTEmpty(t *testing.T) {
	_, ek, _, _ := multiLUTSetup(t, 55, 1, 4)
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 1})
	out, err := s.StreamMultiLUT(nil, 4, multiTables(4, 2))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty stream: out=%v err=%v", out, err)
	}
}
