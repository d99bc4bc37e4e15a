package fft

import "sync"

// Shared processors, keyed by polynomial size. A Processor's tables are
// immutable after construction, so a single instance per N can serve every
// goroutine in the process; sync.Map makes the steady-state lookup a single
// atomic load instead of the mutex-per-call a plain map would need. Key
// generation, GLWE encryption and the streaming engine's workers all hit
// this path concurrently.
var sharedProcs sync.Map // int -> *Processor

// SharedProcessor returns the process-wide Processor for polynomial size n,
// building it on first use. Concurrent first calls may each build a
// candidate; LoadOrStore keeps exactly one.
func SharedProcessor(n int) *Processor {
	if p, ok := sharedProcs.Load(n); ok {
		return p.(*Processor)
	}
	p, _ := sharedProcs.LoadOrStore(n, NewProcessor(n))
	return p.(*Processor)
}

// GetBuffer returns a zeroed FourierPoly of size M from the processor's
// scratch pool. Return it with PutBuffer when done; buffers cycle through
// a sync.Pool so hot paths (key generation, batched bootstrapping) stop
// allocating a fresh transform buffer per call.
func (p *Processor) GetBuffer() FourierPoly {
	if v := p.bufPool.Get(); v != nil {
		fp := *v.(*FourierPoly)
		Clear(fp)
		return fp
	}
	return p.NewFourierPoly()
}

// PutBuffer returns a buffer obtained from GetBuffer (or any FourierPoly of
// the right size) to the pool. Wrong-size buffers are dropped.
func (p *Processor) PutBuffer(fp FourierPoly) {
	if len(fp) != p.m {
		return
	}
	p.bufPool.Put(&fp)
}
