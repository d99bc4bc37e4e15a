package server

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/tfhe"
	"repro/internal/wire"
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
// Keys come in as streams and go out as memory — a StoredKey, the stored
// bytes themselves, which the server uses as the session's key in place.
// They are opaque to the store: exactly the wire.EncodeEvalKey bytes the
// client uploaded, so a restored session computes on byte-identical key
// material and produces bitwise-identical gate results.
type SessionStore interface {
	// Put durably stores the size-byte encoded key that key yields,
	// replacing any previous key of clientID, and returns the stored
	// bytes with one reference for the caller. Before anything commits it
	// hands the stored bytes to check, which returns the key's parameter
	// set (recorded so List never has to decode key material). When key
	// fails or yields anything but size bytes, or check fails, Put fails,
	// nothing is stored and the previous key stays. size is only declared
	// by whoever is uploading: the caller checks it against the key's
	// header before calling Put.
	Put(clientID string, size int64, key io.Reader, check func(b []byte) (tfhe.Params, error)) (*StoredKey, error)
	// Get returns the stored key of clientID, with one reference for the
	// caller, or ErrNotPersisted. A key that no longer matches what Put
	// stored is an error.
	Get(clientID string) (*StoredKey, error)
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

// errShortFill reports a key stream that yielded a different byte count
// than was declared for it.
func errShortFill(clientID string, got, want int64) error {
	return fmt.Errorf("server: key for %q is %d bytes, declared %d", clientID, got, want)
}

// Put implements SessionStore. The key is read, outside the lock, into
// one buffer that grows only behind the bytes delivered (wire.ReadSized),
// and that buffer is both the stored blob and the returned key.
func (m *MemStore) Put(clientID string, size int64, key io.Reader, check func(b []byte) (tfhe.Params, error)) (*StoredKey, error) {
	blob, err := wire.ReadSized(key, size)
	if err != nil {
		return nil, err
	}
	p, err := check(blob)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	m.blobs[clientID] = memEntry{params: p.Name, blob: blob}
	return newStoredKey(blob, nil), nil
}

// Get implements SessionStore: the stored blob itself, which no one
// writes after Put.
func (m *MemStore) Get(clientID string) (*StoredKey, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	e, ok := m.blobs[clientID]
	if !ok {
		return nil, ErrNotPersisted
	}
	return newStoredKey(e.blob, nil), nil
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
	slices.SortFunc(entries, func(a, b StoreEntry) int { return strings.Compare(a.ClientID, b.ClientID) })
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
