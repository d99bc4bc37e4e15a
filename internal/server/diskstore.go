package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/tfhe"
)

// DiskStore is the durable SessionStore: one file per session under
// keys/, the evaluation key's wire-codec bytes followed by a trailer
// (keyTrailer) that names the client ID and the parameter set and records
// the key's length and CRC-32. The file's name is the commit record: a
// key file takes its name s<seq>.key, under a sequence number higher than
// any before it, only once its bytes and trailer are durable, and a
// client's key is the file of the highest sequence number whose trailer
// names the client. Durability discipline, in commit order:
//
//  1. the key and then its trailer are written to a temp file in keys/
//     and fsynced (a crash here leaves only the temp file);
//  2. the file is renamed to its .key name and keys/ is fsynced — only
//     now is the registration committed;
//  3. the file it supersedes is renamed out of keys/ into gone/, and
//     removed from there in the background. A later fsync of keys/ makes
//     the rename durable; until then a crash leaves both files, and the
//     newer one wins.
//
// A delete renames the client's file into gone/ and fsyncs keys/. Open
// reads every trailer, keeps the newest file per client and removes
// every other name: temp files, files whose trailer fails its checks,
// superseded files a crash kept under their .key name, and all of gone/.
// Get re-verifies the key's CRC-32 so silent file corruption surfaces as
// an error instead of a poisoned session.
type DiskStore struct {
	dir string

	mu      sync.Mutex
	seq     uint32
	entries map[string]diskEntry
	closed  bool

	// Filesystem operations; test seams.
	rename  func(from, to string) error
	syncDir func(dir string) error
	remove  func(name string) error

	removing sync.WaitGroup // removals handed off and not yet done
}

// diskEntry is the in-memory manifest row for one persisted session.
type diskEntry struct {
	file string // key file name, relative to keys/
	size int64  // the file's length: key and trailer
	keyTrailer
}

// Store file and directory names.
const (
	keysDirName = "keys"
	goneDirName = "gone"
	// oldLogName is the write-ahead log of the store's earlier format,
	// which named the live key files; this store does not read it.
	oldLogName = "wal"
)

// OpenDiskStore opens (creating if needed) a durable session store
// rooted at dir: the newest key file of each client is its key, and
// every other file is removed.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if _, err := os.Lstat(filepath.Join(dir, oldLogName)); !errors.Is(err, os.ErrNotExist) {
		if err == nil {
			err = errors.New("the write-ahead log of an older store format, which this store does not read")
		}
		return nil, fmt.Errorf("server: open disk store: %s: %w", filepath.Join(dir, oldLogName), err)
	}
	keysDir, goneDir := filepath.Join(dir, keysDirName), filepath.Join(dir, goneDirName)
	for _, d := range []string{keysDir, goneDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: open disk store: %w", err)
		}
	}
	s := &DiskStore{
		dir: dir, entries: make(map[string]diskEntry),
		rename: os.Rename, syncDir: syncDir, remove: os.Remove,
	}
	gone, err := os.ReadDir(goneDir)
	if err != nil {
		return nil, fmt.Errorf("server: open disk store: %w", err)
	}
	var doomed []string
	for _, de := range gone {
		doomed = append(doomed, filepath.Join(goneDir, de.Name()))
	}
	names, err := os.ReadDir(keysDir)
	if err != nil {
		return nil, fmt.Errorf("server: open disk store: %w", err)
	}
	for _, de := range names {
		path := filepath.Join(keysDir, de.Name())
		seq, ok := seqOf(de.Name())
		if !ok {
			doomed = append(doomed, path) // a temp file, or not the store's
			continue
		}
		s.seq = max(s.seq, seq)
		t, size, err := readKeyFile(path)
		if err != nil {
			doomed = append(doomed, path)
			continue
		}
		if old, ok := s.entries[t.clientID]; ok {
			if oldSeq, _ := seqOf(old.file); oldSeq > seq {
				doomed = append(doomed, path)
				continue
			}
			doomed = append(doomed, filepath.Join(keysDir, old.file))
		}
		s.entries[t.clientID] = diskEntry{file: de.Name(), size: size, keyTrailer: t}
	}
	// A file left behind must go before anything commits: an older key
	// file of a client deleted after this open would bring the client back.
	for _, path := range doomed {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("server: open disk store: %w", err)
		}
	}
	return s, nil
}

// keyFileFor returns the key file name for a sequence number.
func keyFileFor(seq uint32) string { return fmt.Sprintf("s%08d.key", seq) }

// seqOf returns the sequence number of a key file name, and whether name
// is one.
func seqOf(name string) (seq uint32, ok bool) {
	_, err := fmt.Sscanf(name, "s%d.key", &seq)
	return seq, err == nil && keyFileFor(seq) == name
}

// readKeyFile reads the trailer of the key file at path, and the file's
// size.
func readKeyFile(path string) (keyTrailer, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return keyTrailer{}, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return keyTrailer{}, 0, err
	}
	t, err := readKeyTrailer(f, fi.Size())
	return t, fi.Size(), err
}

// Put implements SessionStore: key file first, then its name, so a crash
// before the rename leaves only a temp file (removed on the next open),
// never a key file with missing bytes. In order:
//
//  1. the key streams into a temp file outside the lock — that is the
//     49 MB part — so listings, restores and other uploads proceed
//     meanwhile. It is copied in writeBackWindow pieces (copyWindows), and
//     the kernel starts writing each completed window back while the rest
//     still streams in (writeBehind);
//  2. the file is mapped (mapKey) and the mapping checked — the caller
//     views the key there — while it is fsynced;
//  3. only a key that passes both gets its trailer, fsynced in turn, still
//     outside the lock;
//  4. the commit, under the lock: sequence number, rename, directory
//     sync, and the superseded file, if any, renamed out (retire);
//  5. that file is removed in the background (removeBehind), after the
//     lock is released.
//
// A Put that fails at any step leaves no temp file, no key file and no
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
	t := keyTrailer{clientID: clientID, params: p.Name, keyBytes: size, keyCRC: crc.Sum32()}
	trailer, err := appendKeyTrailer(nil, t)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(trailer); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
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
	file := keyFileFor(s.seq)
	path := filepath.Join(keysDir, file)
	if err := s.rename(f.Name(), path); err != nil {
		return nil, fmt.Errorf("server: persist key for %q: %w", clientID, err)
	}
	if err := s.syncDir(keysDir); err != nil {
		// The rename is not known to be durable: take it back, so that
		// the directory holds the previous key, as the manifest does.
		os.Remove(path)
		return nil, fmt.Errorf("server: sync key dir: %w", err)
	}
	if old, ok := s.entries[clientID]; ok {
		stale = s.retire(old.file)
	}
	s.entries[clientID] = diskEntry{file: file, size: size + int64(len(trailer)), keyTrailer: t}
	return stored, nil
}

// retire renames a superseded key file out of keys/ into gone/, so that
// no later open can take it for a live key, and registers its removal;
// it returns the path for removeBehind once mu is released. A file that
// cannot be renamed is removed where it is. Registering under mu is what
// lets Close wait for every removal: Close sets closed under the same
// lock, so no removal is registered after it starts waiting. Called with
// mu held.
func (s *DiskStore) retire(file string) string {
	from, to := filepath.Join(s.dir, keysDirName, file), filepath.Join(s.dir, goneDirName, file)
	if s.rename(from, to) != nil {
		to = from
	}
	s.removing.Add(1)
	return to
}

// removeBehind removes a retired key file in the background, so the
// request that superseded or deleted it does not wait on the filesystem
// freeing its blocks (14–23 ms for a set-I key on ext4 on a virtio disk,
// 2-vCPU VM). The removal is best-effort: if it fails or a crash cuts it
// off, the next open removes the file. An empty path is a no-op.
func (s *DiskStore) removeBehind(path string) {
	if path == "" {
		return
	}
	go func() {
		defer s.removing.Done()
		_ = s.remove(path)
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

// Get implements SessionStore: the key file mapped, and checked against
// the length and CRC-32 its trailer records — silent corruption must not
// become a poisoned session. The file is opened under the lock, so a
// commit that renames it out meanwhile does not take it away.
func (s *DiskStore) Get(clientID string) (*StoredKey, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStoreClosed
	}
	e, ok := s.entries[clientID]
	var f *os.File
	var err error
	if ok {
		f, err = os.Open(filepath.Join(s.dir, keysDirName, e.file))
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotPersisted
	}
	if err != nil {
		return nil, fmt.Errorf("server: read persisted key for %q: %w", clientID, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("server: read persisted key for %q: %w", clientID, err)
	}
	if fi.Size() != e.size {
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

// errChecksum reports a key file that no longer matches its trailer.
func errChecksum(clientID string, n int64) error {
	return fmt.Errorf("server: persisted key for %q fails its checksum (%d bytes)", clientID, n)
}

// Delete implements SessionStore: renaming the client's key file out of
// keys/ and syncing the directory commits the delete; the file's removal
// after it is handed to the background (removeBehind), and a crash before
// it is done leaves the file in gone/ for the next open.
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
	keysDir, gone := filepath.Join(s.dir, keysDirName), filepath.Join(s.dir, goneDirName, e.file)
	if err := s.rename(filepath.Join(keysDir, e.file), gone); err != nil {
		return false, fmt.Errorf("server: delete key of %q: %w", clientID, err)
	}
	delete(s.entries, clientID)
	s.removing.Add(1)
	stale = gone
	if err := s.syncDir(keysDir); err != nil {
		return true, fmt.Errorf("server: sync key dir: %w", err)
	}
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
	slices.SortFunc(entries, func(a, b StoreEntry) int { return strings.Compare(a.ClientID, b.ClientID) })
	return entries
}

// Close implements SessionStore: every commit is durable already, so
// Close only returns once the key-file removals handed off before it are
// done. The directory can be re-opened by a later OpenDiskStore.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.removing.Wait()
	return nil
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

// keyTrailer is what a key file records after the key's bytes: whose key
// it is, and what to check the key against. On disk, little-endian:
//
//	trailer := body | len(body) u32 | crc32(body) u32 | magic u32 ("SKTR")
//	body    := keyBytes u64 | keyCRC u32 | idLen u16 | id | paramsLen u8 | params
//
// The trailer is read from the end of the file, so a torn or foreign
// tail fails the magic, the length or the CRC. The key's bytes are the
// keyBytes bytes before it, and the file holds nothing else.
type keyTrailer struct {
	clientID string
	params   string
	keyBytes int64
	keyCRC   uint32
}

const (
	// trailerMagic ends every key file ("SKTR", little-endian).
	trailerMagic uint32 = 0x52544B53
	// trailerFooter is the length, CRC and magic after the body.
	trailerFooter = 12
	// maxTrailerBody bounds a trailer body: a client ID of at most
	// MaxClientIDBytes and a parameter-set name of at most 255 bytes.
	maxTrailerBody = 8 + 4 + 2 + MaxClientIDBytes + 1 + 255
)

// errBadTrailer reports a key file whose trailer fails its checks.
var errBadTrailer = errors.New("server: key file has no valid trailer")

// appendKeyTrailer appends the encoding of t.
func appendKeyTrailer(dst []byte, t keyTrailer) ([]byte, error) {
	if t.clientID == "" || len(t.clientID) > MaxClientIDBytes || len(t.params) > 255 || t.keyBytes < 0 {
		return nil, fmt.Errorf("server: key trailer out of bounds (id %d bytes, params %d bytes, key %d bytes)",
			len(t.clientID), len(t.params), t.keyBytes)
	}
	body := binary.LittleEndian.AppendUint64(nil, uint64(t.keyBytes))
	body = binary.LittleEndian.AppendUint32(body, t.keyCRC)
	body = binary.LittleEndian.AppendUint16(body, uint16(len(t.clientID)))
	body = append(append(body, t.clientID...), byte(len(t.params)))
	body = append(body, t.params...)
	dst = append(dst, body...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return binary.LittleEndian.AppendUint32(dst, trailerMagic), nil
}

// readKeyTrailer reads the trailer of a size-byte key file. It reads the
// footer, then a body of at most maxTrailerBody bytes: the bytes come
// from disk, so no length in them decides more than that.
func readKeyTrailer(f io.ReaderAt, size int64) (keyTrailer, error) {
	var foot [trailerFooter]byte
	if size < trailerFooter {
		return keyTrailer{}, errBadTrailer
	}
	if _, err := f.ReadAt(foot[:], size-trailerFooter); err != nil {
		return keyTrailer{}, err
	}
	n := int64(binary.LittleEndian.Uint32(foot[:]))
	if binary.LittleEndian.Uint32(foot[8:]) != trailerMagic || n < 15 || n > maxTrailerBody || n > size-trailerFooter {
		return keyTrailer{}, errBadTrailer
	}
	body := make([]byte, n)
	if _, err := f.ReadAt(body, size-trailerFooter-n); err != nil {
		return keyTrailer{}, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(foot[4:]) {
		return keyTrailer{}, errBadTrailer
	}
	t := keyTrailer{keyBytes: int64(binary.LittleEndian.Uint64(body)), keyCRC: binary.LittleEndian.Uint32(body[8:])}
	id, rest := int(binary.LittleEndian.Uint16(body[12:])), body[14:]
	if id == 0 || id > MaxClientIDBytes || len(rest) < id+1 || len(rest) != id+1+int(rest[id]) {
		return keyTrailer{}, errBadTrailer
	}
	t.clientID, t.params = string(rest[:id]), string(rest[id+1:])
	if t.keyBytes != size-trailerFooter-n {
		return keyTrailer{}, errBadTrailer
	}
	return t, nil
}
