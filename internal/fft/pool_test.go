package fft

import (
	"sync"
	"testing"

	"repro/internal/poly"
)

func TestSharedProcessorSingleton(t *testing.T) {
	a := SharedProcessor(256)
	b := SharedProcessor(256)
	if a != b {
		t.Fatal("SharedProcessor returned distinct instances for the same N")
	}
	if c := SharedProcessor(512); c == a {
		t.Fatal("SharedProcessor returned the same instance for different N")
	}
	if a.N() != 256 {
		t.Fatalf("SharedProcessor(256).N() = %d", a.N())
	}
}

func TestSharedProcessorConcurrent(t *testing.T) {
	// Hammer the lookup from many goroutines; under -race this verifies the
	// lock-free path, and all callers must agree on the instance.
	const workers = 16
	got := make([]*Processor, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got[w] = SharedProcessor(1024)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("concurrent SharedProcessor callers observed distinct instances")
		}
	}
}

func TestBufferPoolRoundTrip(t *testing.T) {
	p := SharedProcessor(64)
	buf := p.GetBuffer()
	if len(buf) != p.M() {
		t.Fatalf("GetBuffer length = %d, want %d", len(buf), p.M())
	}
	for i := range buf {
		buf[i] = complex(1, 1) // dirty it
	}
	p.PutBuffer(buf)
	buf2 := p.GetBuffer()
	for i, c := range buf2 {
		if c != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, c)
		}
	}
	p.PutBuffer(buf2)
	p.PutBuffer(make(FourierPoly, 3)) // wrong size must be dropped, not panic
	if got := p.GetBuffer(); len(got) != p.M() {
		t.Fatalf("pool handed back a wrong-size buffer of length %d", len(got))
	}
}

func TestBufferPoolTransformMatchesFresh(t *testing.T) {
	p := SharedProcessor(64)
	src := poly.New(64)
	for j := range src.Coeffs {
		src.Coeffs[j] = uint32(j)*2654435761 + 12345
	}
	want := fwdTorus(p, src)

	buf := p.GetBuffer()
	p.ForwardTorusTo(buf, src)
	for j := range want {
		if want[j] != buf[j] {
			t.Fatalf("pooled transform differs at %d: %v vs %v", j, buf[j], want[j])
		}
	}
	p.PutBuffer(buf)
}
