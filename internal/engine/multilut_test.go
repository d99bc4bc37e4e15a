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

// TestMultiLUTSavesRotations pins the whole point: k outputs per item for
// one rotation each, versus k rotations on the per-output path.
func TestMultiLUTSavesRotations(t *testing.T) {
	const space, k, batch = 4, 4, 6
	_, ek, cts, _ := multiLUTSetup(t, 53, batch, space)
	fs := multiTables(space, k)

	eng := NewStreaming(ek, StreamConfig{RotateWorkers: 2})
	if _, err := eng.MultiLUT(cts, space, fs); err != nil {
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

// TestMultiLUTValidation: the engine must reject un-packable requests
// before any worker starts.
func TestMultiLUTValidation(t *testing.T) {
	_, ek, cts, _ := multiLUTSetup(t, 54, 2, 4)
	over := make([]func(int) int, tfhe.ParamsTest.N) // space·k > N
	for i := range over {
		over[i] = func(m int) int { return m }
	}
	s := NewStreaming(ek, StreamConfig{RotateWorkers: 1})
	if _, err := s.MultiLUT(cts, 2, over); err == nil {
		t.Fatal("MultiLUT accepted space·k > N")
	}
	if _, err := s.MultiLUT(cts, 1, multiTables(4, 2)); err == nil {
		t.Fatal("MultiLUT accepted space < 2")
	}
}
