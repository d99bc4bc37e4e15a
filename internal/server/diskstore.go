package server

import (
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/tfhe"
)

// DiskStore is the durable SessionStore: evaluation keys as wire-codec
// files on disk (one .key blob per session, in the internal/wire
// encoding) fronted by the checksummed write-ahead log of wal.go, whose
// records carry everything else a listing or restore needs. Durability
// discipline, in commit order:
//
//  1. the key file is written to a temp name, fsynced, and renamed into
//     keys/ (a crash here leaves only an orphan file);
//  2. the keys/ directory is fsynced so the rename is durable;
//  3. the WAL record referencing the key file is appended and fsynced —
//     only now is the registration committed.
//
// Open replays the WAL: the longest valid record prefix is the committed
// state, a torn or corrupt tail is truncated away, records pointing at
// missing key files are dropped, and orphan key files not referenced by
// any live record are garbage collected. Get re-verifies the blob's
// recorded CRC-32 so silent file corruption surfaces as an error instead
// of a poisoned session.
type DiskStore struct {
	dir string

	mu      sync.Mutex
	wal     *os.File
	seq     uint32
	entries map[string]diskEntry
	closed  bool
}

// diskEntry is the in-memory manifest row for one persisted session.
type diskEntry struct {
	file     string // key blob file name, relative to keys/
	params   string
	keyBytes int64
	keyCRC   uint32
}

// Store file names.
const (
	walFileName = "wal"
	keysDirName = "keys"
)

// OpenDiskStore opens (creating if needed) a durable session store
// rooted at dir, replaying and repairing its write-ahead log.
func OpenDiskStore(dir string) (*DiskStore, error) {
	keysDir := filepath.Join(dir, keysDirName)
	if err := os.MkdirAll(keysDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: open disk store: %w", err)
	}
	walPath := filepath.Join(dir, walFileName)

	data, err := os.ReadFile(walPath)
	switch {
	case os.IsNotExist(err):
		if err := writeFileSync(walPath, appendWALHeader(nil)); err != nil {
			return nil, fmt.Errorf("server: init WAL: %w", err)
		}
		data = appendWALHeader(nil)
	case err != nil:
		return nil, fmt.Errorf("server: read WAL: %w", err)
	}

	recs, valid, err := replayWAL(data)
	if err != nil {
		return nil, err
	}
	if valid < int64(len(data)) {
		// Torn or corrupt tail: truncate to the committed prefix so the
		// next append starts on a record boundary.
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("server: truncate torn WAL tail: %w", err)
		}
	}

	s := &DiskStore{dir: dir, entries: make(map[string]diskEntry)}
	for _, rec := range recs {
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		switch rec.Op {
		case walOpRegister:
			s.entries[rec.ClientID] = diskEntry{
				file: rec.File, params: rec.Params,
				keyBytes: rec.KeyBytes, keyCRC: rec.KeyCRC,
			}
		case walOpDelete:
			delete(s.entries, rec.ClientID)
		}
	}
	// Drop manifest rows whose key file vanished (a delete that crashed
	// after removing the file, or external damage): better an explicit
	// re-register than a session that errors on every restore.
	for id, e := range s.entries {
		if _, err := os.Stat(filepath.Join(keysDir, e.file)); err != nil {
			delete(s.entries, id)
		}
	}
	s.gcOrphans(keysDir)

	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open WAL for append: %w", err)
	}
	s.wal = wal
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// gcOrphans removes files not referenced by any live manifest row:
// leftovers of replaced registrations, crashed puts or deletes, and the
// .params sidecar that older versions of the store wrote beside each key.
func (s *DiskStore) gcOrphans(keysDir string) {
	live := make(map[string]bool, len(s.entries))
	for _, e := range s.entries {
		live[e.file] = true
	}
	names, err := os.ReadDir(keysDir)
	if err != nil {
		return
	}
	for _, de := range names {
		if !live[de.Name()] {
			_ = os.Remove(filepath.Join(keysDir, de.Name()))
		}
	}
}

// keyFileFor returns the key blob file name for a sequence number.
func keyFileFor(seq uint32) string { return fmt.Sprintf("s%08d.key", seq) }

// Put implements SessionStore: key file first, WAL record second, so a
// crash between the two leaves an orphan file (collected on next open),
// never a committed record pointing at missing bytes. The key streams into
// a temp file and is fsynced outside the lock — that is the 49 MB part —
// so listings, restores and other uploads proceed meanwhile; the lock
// covers only the commit: sequence number, rename, directory sync, WAL
// append. A Put that fails at any step leaves no temp file and no record.
func (s *DiskStore) Put(clientID string, size int64, fill func(w io.Writer) (tfhe.Params, error)) error {
	keysDir := filepath.Join(s.dir, keysDirName)
	crc := crc32.NewIEEE()
	var p tfhe.Params
	keyTmp, err := writeTempSync(keysDir, func(f *os.File) error {
		var err error
		if p, err = fill(io.MultiWriter(f, crc)); err != nil {
			return err
		}
		fi, err := f.Stat()
		if err == nil && fi.Size() != size {
			err = errShortFill(clientID, fi.Size(), size)
		}
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(keyTmp) // a no-op once renamed

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.seq++
	rec := walRecord{
		Op: walOpRegister, Seq: s.seq, ClientID: clientID,
		File: keyFileFor(s.seq), KeyBytes: size,
		KeyCRC: crc.Sum32(), Params: p.Name,
	}
	framed, err := appendWALRecord(nil, rec)
	if err != nil {
		return err
	}
	if err := os.Rename(keyTmp, filepath.Join(keysDir, rec.File)); err != nil {
		return fmt.Errorf("server: persist key for %q: %w", clientID, err)
	}
	if err := syncDir(keysDir); err != nil {
		return fmt.Errorf("server: sync key dir: %w", err)
	}
	if err := s.appendSync(framed); err != nil {
		return err
	}

	if old, ok := s.entries[clientID]; ok && old.file != rec.File {
		// The replacement is committed; the old file is now an orphan.
		_ = os.Remove(filepath.Join(keysDir, old.file))
	}
	s.entries[clientID] = diskEntry{file: rec.File, params: rec.Params, keyBytes: rec.KeyBytes, keyCRC: rec.KeyCRC}
	return nil
}

// appendSync appends framed bytes to the WAL and fsyncs. Called with mu
// held.
func (s *DiskStore) appendSync(framed []byte) error {
	if _, err := s.wal.Write(framed); err != nil {
		return fmt.Errorf("server: append WAL: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("server: sync WAL: %w", err)
	}
	return nil
}

// Get implements SessionStore. The returned reader checks the key against
// the length and CRC-32 the WAL committed for it as it is read.
func (s *DiskStore) Get(clientID string) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrStoreClosed
	}
	e, ok := s.entries[clientID]
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrNotPersisted
	}
	f, err := os.Open(filepath.Join(s.dir, keysDirName, e.file))
	if err != nil {
		return nil, 0, fmt.Errorf("server: read persisted key for %q: %w", clientID, err)
	}
	return &checkedKey{f: f, id: clientID, want: e, crc: crc32.NewIEEE()}, e.keyBytes, nil
}

// checkedKey reads one key file, turning the io.EOF of a file whose
// length or checksum differs from its WAL record into an error — silent
// corruption must not become a poisoned session.
type checkedKey struct {
	f    *os.File
	id   string
	want diskEntry
	crc  hash.Hash32
	n    int64
}

// Read implements io.Reader.
func (c *checkedKey) Read(p []byte) (int, error) {
	n, err := c.f.Read(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	if err == io.EOF && (c.n != c.want.keyBytes || c.crc.Sum32() != c.want.keyCRC) {
		err = fmt.Errorf("server: persisted key for %q fails its checksum (%d bytes)", c.id, c.n)
	}
	return n, err
}

// Close implements io.Closer.
func (c *checkedKey) Close() error { return c.f.Close() }

// Delete implements SessionStore: the tombstone record commits the
// delete; file removal after it is best-effort cleanup (a crash between
// leaves orphans for the next open's GC).
func (s *DiskStore) Delete(clientID string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrStoreClosed
	}
	e, ok := s.entries[clientID]
	if !ok {
		return false, nil
	}
	s.seq++
	framed, err := appendWALRecord(nil, walRecord{Op: walOpDelete, Seq: s.seq, ClientID: clientID})
	if err != nil {
		return false, err
	}
	if err := s.appendSync(framed); err != nil {
		return false, err
	}
	delete(s.entries, clientID)
	_ = os.Remove(filepath.Join(s.dir, keysDirName, e.file))
	return true, nil
}

// List implements SessionStore.
func (s *DiskStore) List() []StoreEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]StoreEntry, 0, len(s.entries))
	for id, e := range s.entries {
		entries = append(entries, StoreEntry{ClientID: id, Params: e.params, KeyBytes: e.keyBytes})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ClientID < entries[j].ClientID })
	return entries
}

// Close implements SessionStore: a final fsync, then the WAL handle is
// released. The directory can be re-opened by a later OpenDiskStore.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("server: sync WAL on close: %w", err)
	}
	return s.wal.Close()
}

// writeTempSync creates a temp file in dir, lets write fill it, fsyncs and
// closes it, and returns its name for the caller to rename into place.
// On failure the file is removed.
func writeTempSync(dir string, write func(f *os.File) error) (name string, err error) {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		return "", err
	}
	return tmp.Name(), tmp.Close()
}

// writeFileSync writes data to path atomically: temp file in the same
// directory, fsync, rename. Readers never observe a half-written file.
func writeFileSync(path string, data []byte) error {
	tmp, err := writeTempSync(filepath.Dir(path), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory so completed renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
