package server

import "sync/atomic"

// StoredKey is the memory of one stored evaluation key: a read-only
// mapping of its key file, or a heap buffer. A session's key slabs are
// views of it (wire.ViewEvalKey), so it must outlive every use of them:
// the warm tier holds one reference to a session's key and each request
// in flight on the session holds another, and the last Release unmaps it.
// Nothing unmaps it from a finalizer: a request allocates a few hundred
// kilobytes, so the collector would rarely run, and evicted mappings
// would pile up in the meantime.
type StoredKey struct {
	b    []byte
	refs atomic.Int64
	free func([]byte) error // unmaps b; nil for memory the collector owns
}

// liveMaps counts the stored keys whose memory is mapped from a key file
// and not yet released.
var liveMaps atomic.Int64

// newStoredKey returns b as a stored key with one reference, the
// caller's. free, when not nil, is what the last Release calls on b.
func newStoredKey(b []byte, free func([]byte) error) *StoredKey {
	k := &StoredKey{b: b, free: free}
	k.refs.Store(1)
	if free != nil {
		liveMaps.Add(1)
	}
	return k
}

// Bytes returns the key's bytes. They stay valid until the caller's
// reference is released.
func (k *StoredKey) Bytes() []byte { return k.b }

// hold takes another reference for a holder that already has one (a
// request taking a session from the warm tier, under the server's lock).
// A nil key — keys the caller owns — needs none.
func (k *StoredKey) hold() {
	if k != nil && k.refs.Add(1) <= 1 {
		panic("server: hold of a released key")
	}
}

// Release gives up one reference; the last one unmaps the memory.
func (k *StoredKey) Release() {
	if k == nil {
		return
	}
	switch n := k.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("server: key released more often than held")
	}
	if k.free != nil {
		_ = k.free(k.b) // unmapping a mapping this process made cannot fail but for a bug
		liveMaps.Add(-1)
	}
	k.b = nil
}
