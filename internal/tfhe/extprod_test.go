package tfhe

import (
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/poly"
	"repro/internal/torus"
)

// extProdFixture builds everything one external product needs.
func extProdFixture(seed int64) (d GLWECiphertext, g GGSWFourier, gadget poly.Decomposer, proc *fft.Processor, buf *externalProductBuffers, out GLWECiphertext) {
	p := ParamsTest
	rng := rand.New(rand.NewSource(seed))
	key := NewGLWEKey(rng, p.K, p.N)
	proc = fft.NewProcessor(p.N)
	gadget = poly.NewDecomposer(p.PBSBaseLog, p.PBSLevel)
	buf = newExternalProductBuffers(p.K, p.N, p.PBSLevel, proc)
	mu := poly.New(p.N)
	mu.Coeffs[3] = torus.FromFloat(0.25)
	d = key.Encrypt(rng, mu, 1e-9)
	g = EncryptGGSW(rng, key, 1, p)
	out = NewGLWECiphertext(p.K, p.N)
	return
}

func TestExternalProductAccNoAlloc(t *testing.T) {
	// The blind-rotate inner loop must be allocation free: with the scratch
	// buffers pre-built, every ExternalProductAcc call reuses the fused
	// decompose buffers, the Fourier accumulators and the pooled inverse
	// scratch without touching the heap.
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	d, g, gadget, proc, buf, out := extProdFixture(31)
	ExternalProductAcc(out, d, g, gadget, proc, buf, nil) // warm pools
	avg := testing.AllocsPerRun(50, func() {
		ExternalProductAcc(out, d, g, gadget, proc, buf, nil)
	})
	if avg != 0 {
		t.Errorf("ExternalProductAcc allocates %v per call, want 0", avg)
	}
}

func TestExternalProductFastMatchesReference(t *testing.T) {
	// Op-level pin of the kernel contract: the full external product —
	// fused decompose, forward FFTs, VMA MACs, additive inverse — must be
	// bitwise identical under the fast and reference kernels.
	if !fft.FastKernelAvailable() {
		t.Skip("no AVX2 bodies on this build and host")
	}
	d, g, gadget, proc, buf, outFast := extProdFixture(37)
	outRef := NewGLWECiphertext(outFast.K(), outFast.PolyN())

	prev := fft.SetFastKernel(true)
	ExternalProductAcc(outFast, d, g, gadget, proc, buf, nil)
	fft.SetFastKernel(false)
	ExternalProductAcc(outRef, d, g, gadget, proc, buf, nil)
	fft.SetFastKernel(prev)

	for c := range outFast.Polys {
		for i := range outFast.Polys[c].Coeffs {
			if outFast.Polys[c].Coeffs[i] != outRef.Polys[c].Coeffs[i] {
				t.Fatalf("component %d coeff %d: fast %#x != ref %#x", c, i,
					outFast.Polys[c].Coeffs[i], outRef.Polys[c].Coeffs[i])
			}
		}
	}
}

func BenchmarkExternalProduct(b *testing.B) {
	d, g, gadget, proc, buf, out := extProdFixture(41)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ExternalProductAcc(out, d, g, gadget, proc, buf, nil)
		}
	}
	b.Run("fast", func(b *testing.B) {
		if !fft.FastKernelAvailable() {
			b.Skip("no AVX2 bodies on this build and host")
		}
		prev := fft.SetFastKernel(true)
		defer fft.SetFastKernel(prev)
		run(b)
	})
	b.Run("ref", func(b *testing.B) {
		prev := fft.SetFastKernel(false)
		defer fft.SetFastKernel(prev)
		run(b)
	})
}
