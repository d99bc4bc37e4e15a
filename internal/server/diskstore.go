package server

import (
	"fmt"
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
// A key file that a replacement or a delete leaves unreferenced is removed
// in the background after the commit; Close waits for those removals, and
// one a crash cuts off is garbage the next open collects.
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
	wal     walFile
	walSize int64 // bytes of committed records (and header) in the WAL
	broken  error // why the WAL could not be repaired after a failed append
	seq     uint32
	entries map[string]diskEntry
	closed  bool

	remove   func(name string) error // os.Remove; a test seam
	removing sync.WaitGroup          // removals handed off and not yet done
}

// walFile is the WAL's open file, appended to by Write.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
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
		// next append starts on a record boundary (appendSync keeps it so).
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("server: truncate torn WAL tail: %w", err)
		}
	}

	s := &DiskStore{dir: dir, entries: make(map[string]diskEntry), remove: os.Remove}
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
	s.wal, s.walSize = wal, valid
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
// never a committed record pointing at missing bytes. In order:
//
//  1. the key streams into a temp file outside the lock — that is the
//     49 MB part — so listings, restores and other uploads proceed
//     meanwhile. It is copied in writeBackWindow pieces (copyWindows), and
//     the kernel starts writing each completed window back while the rest
//     still streams in (writeBehind);
//  2. the file is mapped (mapKey) and the mapping checked — the caller
//     views the key there — while it is fsynced;
//  3. only a key that passes both is committed, under the lock: sequence
//     number, rename, directory sync, WAL append;
//  4. the file the commit superseded, if any, is removed in the
//     background (removeBehind), after the lock is released.
//
// A Put that fails at any step leaves no temp file, no record and no
// mapping.
func (s *DiskStore) Put(clientID string, size int64, key io.Reader, check func(b []byte) (tfhe.Params, error)) (_ *StoredKey, err error) {
	keysDir := filepath.Join(s.dir, keysDirName)
	f, err := os.CreateTemp(keysDir, ".tmp-*")
	if err != nil {
		return nil, err
	}
	var stored *StoredKey
	defer func() {
		if err != nil {
			f.Close() // a second Close only errors
			stored.Release()
		}
		os.Remove(f.Name()) // a no-op once renamed
	}()
	crc := crc32.NewIEEE()
	n, err := copyWindows(io.MultiWriter(&writeBehind{f: f}, crc), key)
	if err != nil {
		return nil, err
	}
	if n != size {
		return nil, errShortFill(clientID, n, size)
	}
	// The check reads the whole key while the fsync waits on the device:
	// run them side by side, and commit only if both succeed.
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	var p tfhe.Params
	if stored, err = mapKey(f, size); err == nil {
		p, err = check(stored.Bytes())
	}
	if serr := <-synced; err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	var stale string
	defer func() { s.removeBehind(stale) }() // deferred first, so it runs after the unlock
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	s.seq++
	rec := walRecord{
		Op: walOpRegister, Seq: s.seq, ClientID: clientID,
		File: keyFileFor(s.seq), KeyBytes: size,
		KeyCRC: crc.Sum32(), Params: p.Name,
	}
	framed, err := appendWALRecord(nil, rec)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(f.Name(), filepath.Join(keysDir, rec.File)); err != nil {
		return nil, fmt.Errorf("server: persist key for %q: %w", clientID, err)
	}
	if err := syncDir(keysDir); err != nil {
		return nil, fmt.Errorf("server: sync key dir: %w", err)
	}
	if err := s.appendSync(framed); err != nil {
		return nil, err
	}

	if old, ok := s.entries[clientID]; ok && old.file != rec.File {
		// The replacement is committed; the old file is now an orphan.
		stale = s.handOff(old.file)
	}
	s.entries[clientID] = diskEntry{file: rec.File, params: rec.Params, keyBytes: rec.KeyBytes, keyCRC: rec.KeyCRC}
	return stored, nil
}

// handOff registers the removal of a key file that no committed record
// references any more and returns its name, for removeBehind once mu is
// released. Registering under mu is what lets Close wait for every
// removal: Close sets closed under the same lock, so no removal is
// registered after it starts waiting. Called with mu held.
func (s *DiskStore) handOff(file string) string {
	s.removing.Add(1)
	return file
}

// removeBehind removes a handed-off key file in the background, so the
// request that superseded or deleted it does not wait on the filesystem
// freeing its blocks (14–23 ms for a set-I key on ext4 on a virtio disk,
// 2-vCPU VM). The removal is best-effort: if it fails or a crash cuts it
// off, the next open's gcOrphans collects the file. An empty name is a
// no-op.
func (s *DiskStore) removeBehind(file string) {
	if file == "" {
		return
	}
	go func() {
		defer s.removing.Done()
		_ = s.remove(filepath.Join(s.dir, keysDirName, file))
	}()
}

// writeBackWindow is how much of a key file writeBehind lets accumulate
// before it starts the kernel's write-back of it, and the size of the
// pieces Put copies an upload in (copyWindows), so one file write can
// complete a window. Writing 49 MB (a set-I key) in 32 KB writes and then
// fsyncing took 40–49 ms on a 2-vCPU VM with a virtio disk when the fsync
// started all the write-back, 25–30 ms with it started every megabyte,
// 28–34 ms every 256 KB and 30–38 ms every 4 MB.
const writeBackWindow = 1 << 20

// windowBufs holds copyWindows' buffers, so a Put allocates none.
var windowBufs = sync.Pool{New: func() any { return new([writeBackWindow]byte) }}

// copyWindows copies src to dst through one pooled writeBackWindow-byte
// buffer: each read takes as much as src has ready, up to a window, and
// each is one write to dst. Like io.CopyBuffer, it leaves the copy to src
// when src is an io.WriterTo (or to dst when it is an io.ReaderFrom).
func copyWindows(dst io.Writer, src io.Reader) (int64, error) {
	buf := windowBufs.Get().(*[writeBackWindow]byte)
	defer windowBufs.Put(buf)
	return io.CopyBuffer(dst, src, buf[:])
}

// writeBehind passes writes to a file and, each time another
// writeBackWindow of it is complete, starts the kernel writing that window
// back to the device (startWriteBack) without waiting for it.
type writeBehind struct {
	f       *os.File
	written int64 // bytes written to f
	started int64 // bytes whose write-back has been started
}

// Write implements io.Writer.
func (w *writeBehind) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.written += int64(n)
	if end := w.written - w.written%writeBackWindow; end > w.started {
		startWriteBack(w.f, w.started, end-w.started)
		w.started = end
	}
	return n, err
}

// appendSync appends framed bytes to the WAL and fsyncs. An append that
// fails — a short write on a full disk, or a failed fsync — is cut off
// again, back to the last committed record, and that is made durable:
// replay stops at the first bad frame, so a torn frame left in place would
// hide every record appended behind it. If the WAL cannot be cut back,
// the store fails closed: every later Put and Delete fails. Called with
// mu held.
func (s *DiskStore) appendSync(framed []byte) error {
	if s.broken != nil {
		return fmt.Errorf("server: WAL failed closed: %w", s.broken)
	}
	_, err := s.wal.Write(framed)
	if err == nil {
		if err = s.wal.Sync(); err == nil {
			s.walSize += int64(len(framed))
			return nil
		}
	}
	if terr := s.wal.Truncate(s.walSize); terr != nil {
		s.broken = terr
	} else if serr := s.wal.Sync(); serr != nil {
		s.broken = serr
	}
	return fmt.Errorf("server: append WAL: %w", err)
}

// Get implements SessionStore: the key file mapped, and checked against
// the length and CRC-32 the WAL committed for it — silent corruption must
// not become a poisoned session.
func (s *DiskStore) Get(clientID string) (*StoredKey, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStoreClosed
	}
	e, ok := s.entries[clientID]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotPersisted
	}
	f, err := os.Open(filepath.Join(s.dir, keysDirName, e.file))
	if err != nil {
		return nil, fmt.Errorf("server: read persisted key for %q: %w", clientID, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("server: read persisted key for %q: %w", clientID, err)
	}
	if fi.Size() != e.keyBytes {
		return nil, errChecksum(clientID, fi.Size())
	}
	key, err := mapKey(f, e.keyBytes)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(key.Bytes()) != e.keyCRC {
		key.Release()
		return nil, errChecksum(clientID, e.keyBytes)
	}
	return key, nil
}

// errChecksum reports a key file that no longer matches its WAL record.
func errChecksum(clientID string, n int64) error {
	return fmt.Errorf("server: persisted key for %q fails its checksum (%d bytes)", clientID, n)
}

// Delete implements SessionStore: the tombstone record commits the
// delete; file removal after it is best-effort cleanup, handed to the
// background (removeBehind), and a crash before it is done leaves an
// orphan for the next open's GC.
func (s *DiskStore) Delete(clientID string) (bool, error) {
	var stale string
	defer func() { s.removeBehind(stale) }() // deferred first, so it runs after the unlock
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
	stale = s.handOff(e.file)
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
// released, and Close returns once the key-file removals handed off before
// it are done. The directory can be re-opened by a later OpenDiskStore.
func (s *DiskStore) Close() error {
	defer s.removing.Wait() // after the unlock below: removals take no lock
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
