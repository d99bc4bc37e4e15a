package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/tfhe"
)

// ErrNotPersisted is returned by SessionStore.Get when no key is stored
// under the client ID.
var ErrNotPersisted = errors.New("server: session not persisted")

// ErrStoreClosed is returned by store operations after Close.
var ErrStoreClosed = errors.New("server: session store is closed")

// StoreEntry describes one persisted session: the durable half of what
// GET /v1/sessions reports.
type StoreEntry struct {
	// ClientID is the session's owner.
	ClientID string
	// Params is the parameter set name the key was generated for.
	Params string
	// KeyBytes is the wire-encoded evaluation-key size.
	KeyBytes int64
}

// SessionStore is the durable tier behind the server's warm session LRU:
// it holds wire-encoded evaluation keys (the client upload that must
// survive restarts) keyed by client ID. The server writes through on
// register, reads back on a warm-tier miss, and tombstones on explicit
// delete. Implementations must be safe for concurrent use.
//
// Keys pass through as streams, never as whole buffers, and are opaque to
// the store — exactly the wire.EncodeEvalKey bytes the client uploaded, so
// a restored session is rebuilt from byte-identical key material and
// produces bitwise-identical gate results.
type SessionStore interface {
	// Put durably stores the size-byte encoded key that fill writes to w,
	// replacing any previous key of clientID. fill returns the parameter
	// set it decoded on the way (callers always validate what they store),
	// recorded so List never has to decode key material. When fill fails,
	// or writes anything but size bytes, Put fails, nothing is stored and
	// the previous key stays. size is only declared by whoever is
	// uploading: the caller bounds it.
	Put(clientID string, size int64, fill func(w io.Writer) (tfhe.Params, error)) error
	// Get opens the stored key of clientID for one sequential read and
	// returns its length, or ErrNotPersisted. A key that no longer matches
	// what Put stored fails the read that would have returned io.EOF.
	Get(clientID string) (io.ReadCloser, int64, error)
	// Delete removes clientID's key, reporting whether one was stored.
	// Deleting an absent key is not an error.
	Delete(clientID string) (bool, error)
	// List returns every persisted session, sorted by client ID.
	List() []StoreEntry
	// Close flushes and releases the store. Every later call fails with
	// ErrStoreClosed.
	Close() error
}

// MemStore is the in-memory SessionStore: a durable tier only in the
// sense that it survives warm-LRU eviction, not a process restart. It is
// the reference implementation the disk store is tested against, and a
// useful default when eviction transparency is wanted without disk I/O.
type MemStore struct {
	mu     sync.Mutex
	closed bool
	blobs  map[string]memEntry
}

// memEntry is one stored key.
type memEntry struct {
	params string
	blob   []byte
}

// NewMemStore returns an empty in-memory session store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string]memEntry)}
}

// errShortFill reports a fill that wrote a different byte count than it
// declared.
func errShortFill(clientID string, got, want int64) error {
	return fmt.Errorf("server: key for %q is %d bytes, declared %d", clientID, got, want)
}

// Put implements SessionStore. The key is filled into one buffer of the
// declared size, outside the lock.
func (m *MemStore) Put(clientID string, size int64, fill func(w io.Writer) (tfhe.Params, error)) error {
	buf := bytes.NewBuffer(make([]byte, 0, size))
	p, err := fill(buf)
	if err != nil {
		return err
	}
	if int64(buf.Len()) != size {
		return errShortFill(clientID, int64(buf.Len()), size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	m.blobs[clientID] = memEntry{params: p.Name, blob: buf.Bytes()}
	return nil
}

// Get implements SessionStore.
func (m *MemStore) Get(clientID string) (io.ReadCloser, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, ErrStoreClosed
	}
	e, ok := m.blobs[clientID]
	if !ok {
		return nil, 0, ErrNotPersisted
	}
	return io.NopCloser(bytes.NewReader(e.blob)), int64(len(e.blob)), nil
}

// Delete implements SessionStore.
func (m *MemStore) Delete(clientID string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrStoreClosed
	}
	_, ok := m.blobs[clientID]
	delete(m.blobs, clientID)
	return ok, nil
}

// List implements SessionStore.
func (m *MemStore) List() []StoreEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	entries := make([]StoreEntry, 0, len(m.blobs))
	for id, e := range m.blobs {
		entries = append(entries, StoreEntry{ClientID: id, Params: e.params, KeyBytes: int64(len(e.blob))})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ClientID < entries[j].ClientID })
	return entries
}

// Close implements SessionStore.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.blobs = nil
	return nil
}
