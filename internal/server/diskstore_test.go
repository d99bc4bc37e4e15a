package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/tfhe"
	"repro/internal/wire"
)

// storeBlob is a small stand-in key blob (the store treats blobs as
// opaque bytes; only the parameter set its check returns is interpreted).
func storeBlob(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// putBlob stores blob under id the way the server would: read from a
// stream, with ParamsTest as the parameter set its check finds. The stored
// key it returns is released at once.
func putBlob(s SessionStore, id string, blob []byte) error {
	key, err := s.Put(id, int64(len(blob)), bytes.NewReader(blob), acceptBlob)
	key.Release()
	return err
}

// acceptBlob is the check of a stand-in blob: any bytes are a ParamsTest
// key.
func acceptBlob([]byte) (tfhe.Params, error) { return tfhe.ParamsTest, nil }

// getBlob copies id's stored key out of the store.
func getBlob(s SessionStore, id string) ([]byte, error) {
	key, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	defer key.Release()
	return bytes.Clone(key.Bytes()), nil
}

// writesOf is a key that writes itself to whoever copies it in writes of
// 100 003 bytes, which straddle the edges of the write-back windows.
type writesOf []byte

// Read implements io.Reader.
func (k *writesOf) Read(p []byte) (int, error) {
	if len(*k) == 0 {
		return 0, io.EOF
	}
	n := copy(p, *k)
	*k = (*k)[n:]
	return n, nil
}

// WriteTo implements io.WriterTo.
func (k *writesOf) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for len(*k) > 0 {
		m, err := w.Write((*k)[:min(len(*k), 100_003)])
		n += int64(m)
		*k = (*k)[m:]
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestDiskStoreRoundTrip pins put/get/list/delete on a fresh store.
func TestDiskStoreRoundTrip(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blob := storeBlob(1, 100)
	if err := putBlob(s, "alice", blob); err != nil {
		t.Fatal(err)
	}
	got, err := getBlob(s, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Error("Get returned different bytes than Put stored")
	}
	if _, err := getBlob(s, "bob"); !errors.Is(err, ErrNotPersisted) {
		t.Errorf("missing key: %v, want ErrNotPersisted", err)
	}

	list := s.List()
	if len(list) != 1 || list[0].ClientID != "alice" || list[0].KeyBytes != 100 || list[0].Params != tfhe.ParamsTest.Name {
		t.Errorf("List = %+v", list)
	}

	ok, err := s.Delete("alice")
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v; want true, nil", ok, err)
	}
	ok, err = s.Delete("alice")
	if err != nil || ok {
		t.Fatalf("second Delete = %v, %v; want false, nil", ok, err)
	}
	if _, err := getBlob(s, "alice"); !errors.Is(err, ErrNotPersisted) {
		t.Errorf("deleted key: %v, want ErrNotPersisted", err)
	}
}

// TestDiskStoreReopen proves the full state machine survives close +
// reopen: registers, a replacement, and a tombstone.
func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "alice", storeBlob(1, 50)); err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "bob", storeBlob(2, 60)); err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "alice", storeBlob(3, 70)); err != nil { // replace
		t.Fatal(err)
	}
	if _, err := s.Delete("bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := putBlob(s, "x", nil); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Put after Close: %v, want ErrStoreClosed", err)
	}

	r, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := getBlob(r, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, storeBlob(3, 70)) {
		t.Error("reopened store returned stale alice blob")
	}
	if _, err := getBlob(r, "bob"); !errors.Is(err, ErrNotPersisted) {
		t.Errorf("tombstoned bob after reopen: %v, want ErrNotPersisted", err)
	}
	// A replacement and a delete leave exactly one live key after orphan
	// GC.
	names, err := os.ReadDir(filepath.Join(dir, keysDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || filepath.Ext(names[0].Name()) != ".key" {
		var ls []string
		for _, de := range names {
			ls = append(ls, de.Name())
		}
		t.Errorf("keys/ after reopen has %v, want exactly one .key", ls)
	}
}

// TestDiskStorePutAcrossWriteBackWindows streams a key of a few MB that
// crosses several write-back windows and ends inside one, in writes that
// straddle the window edges: it reads back byte for byte, before and after
// a reopen, under the CRC-32 its trailer recorded. A fill that fails
// after 2 MB, with write-back already started on the temp file, leaves no
// temp file and no key file.
func TestDiskStorePutAcrossWriteBackWindows(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	payload := make([]byte, 3*writeBackWindow+writeBackWindow/3)
	rand.New(rand.NewSource(17)).Read(payload)
	key := writesOf(payload)
	stored, err := s.Put("big", int64(len(payload)), &key, acceptBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored.Bytes(), payload) {
		t.Error("Put returned different bytes than it stored")
	}
	stored.Release()
	// The same writes through a writeBehind of its own: write-back has
	// started on every whole window and on nothing past them.
	f, err := os.CreateTemp(t.TempDir(), "wb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wb := &writeBehind{f: f}
	key = writesOf(payload)
	if _, err := key.WriteTo(wb); err != nil {
		t.Fatal(err)
	}
	if wb.written != int64(len(payload)) || wb.started != 3*writeBackWindow {
		t.Errorf("writeBehind wrote %d bytes and started write-back of %d, want %d and %d",
			wb.written, wb.started, len(payload), 3*writeBackWindow)
	}
	if got, want := s.entries["big"].keyCRC, crc32.ChecksumIEEE(payload); got != want {
		t.Errorf("trailer recorded CRC-32 %#x, want %#x", got, want)
	}
	if got, err := getBlob(s, "big"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes (error %v), want the %d written", len(got), err, len(payload))
	}

	failed := errors.New("upload cut")
	_, err = s.Put("cut", int64(len(payload)), io.MultiReader(bytes.NewReader(payload[:2<<20]), iotest.ErrReader(failed)), acceptBlob)
	if !errors.Is(err, failed) {
		t.Fatalf("Put with a failing fill: %v, want %v", err, failed)
	}
	if names := keyFiles(t, dir); len(names) != 1 || names[0] != s.entries["big"].file {
		t.Errorf("keys/ after a failed Put has %v, want only the committed %s", names, s.entries["big"].file)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenDiskStore(dir); err != nil {
		t.Fatal(err)
	}
	if ids := s.List(); len(ids) != 1 || ids[0].ClientID != "big" {
		t.Errorf("reopened store lists %v, want only big", ids)
	}
	if got, want := s.entries["big"].keyCRC, crc32.ChecksumIEEE(payload); got != want {
		t.Errorf("reopened trailer holds CRC-32 %#x, want %#x", got, want)
	}
	if got, err := getBlob(s, "big"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("reopened store read back %d bytes (error %v), want the %d written", len(got), err, len(payload))
	}
}

// TestDiskStoreCorruptKeyFile proves Get detects silent key-file
// corruption via the CRC its trailer recorded instead of restoring a
// poisoned session.
func TestDiskStoreCorruptKeyFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := putBlob(s, "alice", storeBlob(1, 80)); err != nil {
		t.Fatal(err)
	}
	keysDir := filepath.Join(dir, keysDirName)
	names, err := os.ReadDir(keysDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if filepath.Ext(de.Name()) != ".key" {
			continue
		}
		path := filepath.Join(keysDir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[10] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := getBlob(s, "alice"); err == nil {
		t.Error("Get returned a corrupted blob without error")
	}
}

// TestDiskStoreMissingKeyFile proves a session whose key file vanished
// is unknown after a reopen (re-register beats restore-that-errors).
func TestDiskStoreMissingKeyFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "alice", storeBlob(1, 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	keysDir := filepath.Join(dir, keysDirName)
	names, _ := os.ReadDir(keysDir)
	for _, de := range names {
		if filepath.Ext(de.Name()) == ".key" {
			os.Remove(filepath.Join(keysDir, de.Name()))
		}
	}
	r, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := getBlob(r, "alice"); !errors.Is(err, ErrNotPersisted) {
		t.Errorf("Get with missing key file: %v, want ErrNotPersisted", err)
	}
	if got := r.List(); len(got) != 0 {
		t.Errorf("List = %+v, want empty", got)
	}
}

// TestDiskStoreOrphanGC proves unreferenced files in keys/ are collected
// on open: a key file whose trailer is not one, and the .params sidecar
// older versions of the store kept beside a live key. Such a directory
// still opens, and its sessions list and restore from their key files'
// trailers alone.
func TestDiskStoreOrphanGC(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "alice", storeBlob(1, 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	keysDir := filepath.Join(dir, keysDirName)
	leftovers := []string{"s99999999.key", "s00000001.params"}
	for _, name := range leftovers {
		if err := os.WriteFile(filepath.Join(keysDir, name), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(keysDir, name)); !os.IsNotExist(err) {
			t.Errorf("unreferenced %s survived open", name)
		}
	}
	if _, err := getBlob(r, "alice"); err != nil {
		t.Errorf("live session lost to GC: %v", err)
	}
	if got := r.List(); len(got) != 1 || got[0].ClientID != "alice" || got[0].KeyBytes != 30 {
		t.Errorf("List after GC = %+v, want alice with 30 key bytes", got)
	}
}

// TestMemStoreConformance runs the same basic contract over MemStore,
// the reference implementation.
func TestMemStoreConformance(t *testing.T) {
	m := NewMemStore()
	if err := putBlob(m, "alice", storeBlob(1, 10)); err != nil {
		t.Fatal(err)
	}
	got, err := getBlob(m, "alice")
	if err != nil || !bytes.Equal(got, storeBlob(1, 10)) {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := getBlob(m, "bob"); !errors.Is(err, ErrNotPersisted) {
		t.Errorf("missing: %v, want ErrNotPersisted", err)
	}
	if list := m.List(); len(list) != 1 || list[0].KeyBytes != 10 {
		t.Errorf("List = %+v", list)
	}
	if ok, _ := m.Delete("alice"); !ok {
		t.Error("Delete existing = false")
	}
	if ok, _ := m.Delete("alice"); ok {
		t.Error("Delete absent = true")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := putBlob(m, "x", nil); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Put after Close: %v, want ErrStoreClosed", err)
	}
}

// TestDiskStoreRemovesOffRequestPath holds every key-file removal on a
// channel and requires the store to answer meanwhile: replacing alice's
// key and deleting bob's return with their removals blocked, and Get, List
// and another Put complete. Close returns only once the removals are
// released, and leaves keys/ holding exactly the live key files. Removing
// the superseded file under the lock, as the store once did, held every
// other call behind the filesystem.
func TestDiskStoreRemovesOffRequestPath(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"alice", "bob"} {
		if err := putBlob(s, id, storeBlob(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	removing := make(chan string, 2)
	release := make(chan struct{})
	s.remove = func(name string) error {
		removing <- filepath.Base(name)
		<-release
		return os.Remove(name)
	}
	superseded, deleted := s.entries["alice"].file, s.entries["bob"].file

	within(t, "replacing alice's key", func() error { return putBlob(s, "alice", storeBlob(2, 64)) })
	within(t, "deleting bob", func() error {
		if ok, err := s.Delete("bob"); !ok {
			return fmt.Errorf("Delete = %v, %v; want true, nil", ok, err)
		}
		return nil
	})
	var removed []string
	for range 2 {
		select {
		case name := <-removing:
			removed = append(removed, name)
		case <-time.After(5 * time.Second):
			t.Fatalf("removals started: %v, want %s and %s", removed, superseded, deleted)
		}
	}
	slices.Sort(removed)
	if want := []string{superseded, deleted}; !slices.Equal(removed, want) {
		t.Errorf("removed %v, want %v", removed, want)
	}
	within(t, "Get", func() error {
		got, err := getBlob(s, "alice")
		if err == nil && !bytes.Equal(got, storeBlob(2, 64)) {
			err = errors.New("alice reads back her superseded key")
		}
		return err
	})
	within(t, "List", func() error {
		if got := s.List(); len(got) != 1 || got[0].ClientID != "alice" {
			return fmt.Errorf("List = %+v, want only alice", got)
		}
		return nil
	})
	within(t, "another Put", func() error { return putBlob(s, "carol", storeBlob(3, 64)) })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while two removals were blocked", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the removals were released")
	}

	names, err := os.ReadDir(filepath.Join(dir, keysDirName))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, de := range names {
		got = append(got, de.Name())
	}
	want := []string{s.entries["alice"].file, s.entries["carol"].file}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("keys/ after Close holds %v, want the live key files %v", got, want)
	}
}

// countingWriter counts the writes it takes.
type countingWriter struct {
	writes int
	n      int64
}

// Write implements io.Writer.
func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.n += int64(len(p))
	return len(p), nil
}

// TestCopyWindowsWritesWholeWindows: copyWindows moves a source without a
// WriteTo of its own in writes of whole write-back windows, so 3⅓ windows
// reach the writer in 4 writes (in io.Copy's 32 KB pieces, they were 107).
func TestCopyWindowsWritesWholeWindows(t *testing.T) {
	size := 3*writeBackWindow + writeBackWindow/3
	var w countingWriter
	n, err := copyWindows(&w, struct{ io.Reader }{bytes.NewReader(make([]byte, size))})
	if err != nil || n != int64(size) || w.n != int64(size) {
		t.Fatalf("copied %d bytes, wrote %d (error %v), want %d", n, w.n, err, size)
	}
	if w.writes != 4 {
		t.Errorf("%d bytes reached the writer in %d writes, want 4", size, w.writes)
	}
}

// BenchmarkDiskStorePut re-registers one client's set-I-sized key into a
// DiskStore, read from a stream without a WriteTo as an HTTP upload is, so
// every iteration after the first supersedes the file of the one before:
// temp write, fsync, trailer and its fsync, rename, directory sync.
// Reports ms/op.
func BenchmarkDiskStorePut(b *testing.B) {
	s, err := OpenDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	size, ok := wire.EvalKeySize(tfhe.ParamsI)
	if !ok {
		b.Fatal("no key size for set I")
	}
	blob := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(blob)
	b.SetBytes(size)
	b.ResetTimer()
	for range b.N {
		key, err := s.Put("alice", size, struct{ io.Reader }{bytes.NewReader(blob)}, acceptBlob)
		if err != nil {
			b.Fatal(err)
		}
		key.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// keyFileImage returns a key file of id's blob as Put leaves it: the
// blob, then its trailer.
func keyFileImage(t *testing.T, id string, blob []byte) []byte {
	t.Helper()
	data, err := appendKeyTrailer(bytes.Clone(blob), keyTrailer{
		clientID: id, params: tfhe.ParamsTest.Name,
		keyBytes: int64(len(blob)), keyCRC: crc32.ChecksumIEEE(blob),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// trailerOf reads the trailer of a key file image.
func trailerOf(data []byte) (keyTrailer, error) {
	return readKeyTrailer(bytes.NewReader(data), int64(len(data)))
}

// framedTrailer returns the bytes before a trailer body, the body, and
// the footer over it, with a valid length, CRC and magic.
func framedTrailer(head, body []byte) []byte {
	data := append(bytes.Clone(head), body...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
	return binary.LittleEndian.AppendUint32(data, trailerMagic)
}

// TestKeyTrailerRoundTrip pins encode → read over the full field set, an
// empty key and an ID of the maximum length included.
func TestKeyTrailerRoundTrip(t *testing.T) {
	for _, want := range []keyTrailer{
		{clientID: "alice", params: "I", keyBytes: 100, keyCRC: 0xdeadbeef},
		{clientID: "b", keyBytes: 0, keyCRC: 7},
		{clientID: strings.Repeat("x", MaxClientIDBytes), params: strings.Repeat("p", 255), keyBytes: 3, keyCRC: 1},
	} {
		data, err := appendKeyTrailer(make([]byte, want.keyBytes), want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := trailerOf(data); err != nil || got != want {
			t.Errorf("read %+v (error %v), want %+v", got, err, want)
		}
	}
}

// TestKeyTrailerTorn reads every truncation of a key file: none has a
// trailer, whether the cut falls in the key or in the trailer.
func TestKeyTrailerTorn(t *testing.T) {
	data := keyFileImage(t, "alice", storeBlob(1, 40))
	for cut := range len(data) {
		if got, err := trailerOf(data[:cut]); err == nil {
			t.Fatalf("cut at %d of %d: read %+v", cut, len(data), got)
		}
	}
}

// TestKeyTrailerBitFlip flips each bit of a trailer in turn: the body's
// CRC, its length or the magic refuses every one.
func TestKeyTrailerBitFlip(t *testing.T) {
	blob := storeBlob(1, 40)
	data := keyFileImage(t, "alice", blob)
	for off := len(blob); off < len(data); off++ {
		for bit := range 8 {
			flipped := bytes.Clone(data)
			flipped[off] ^= 1 << bit
			if got, err := trailerOf(flipped); err == nil {
				t.Fatalf("flip of bit %d at %d: read %+v", bit, off, got)
			}
		}
	}
}

// readCounter is an io.ReaderAt over b that counts the bytes asked of it.
type readCounter struct {
	b    []byte
	read int
}

// ReadAt implements io.ReaderAt.
func (r *readCounter) ReadAt(p []byte, off int64) (int, error) {
	r.read += len(p)
	return bytes.NewReader(r.b).ReadAt(p, off)
}

// TestKeyTrailerHostileLength: a footer whose length field claims 4 GB
// drives neither a giant read nor a panic.
func TestKeyTrailerHostileLength(t *testing.T) {
	data := keyFileImage(t, "alice", storeBlob(1, 40))
	binary.LittleEndian.PutUint32(data[len(data)-trailerFooter:], 0xffffffff)
	r := &readCounter{b: data}
	if got, err := readKeyTrailer(r, int64(len(data))); err == nil {
		t.Fatalf("read %+v", got)
	}
	if r.read > trailerFooter {
		t.Errorf("read %d bytes for a trailer whose length is out of bounds", r.read)
	}
}

// TestKeyTrailerRejectsMalformedBodies: bodies under a valid footer and
// CRC whose fields do not fit are refused.
func TestKeyTrailerRejectsMalformedBodies(t *testing.T) {
	key := storeBlob(1, 10)
	body := func(keyBytes uint64, id string, idLen uint16, params string, extra ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, keyBytes)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(key))
		b = binary.LittleEndian.AppendUint16(b, idLen)
		b = append(append(b, id...), byte(len(params)))
		return append(append(b, params...), extra...)
	}
	long := strings.Repeat("x", MaxClientIDBytes+1)
	for name, b := range map[string][]byte{
		"empty id":          body(10, "", 0, "test"),
		"id over the bound": body(10, long, uint16(len(long)), "test"),
		"id past the body":  body(10, "alice", 200, "test"),
		"params past body":  body(10, "alice", 5, "test")[:23],
		"trailing byte":     body(10, "alice", 5, "test", 0),
		"key longer":        body(11, "alice", 5, "test"),
		"key shorter":       body(9, "alice", 5, "test"),
		"negative key":      body(1<<63, "alice", 5, "test"),
		"short body":        body(10, "alice", 5, "test")[:14],
	} {
		if got, err := trailerOf(framedTrailer(key, b)); err == nil {
			t.Errorf("%s: read %+v", name, got)
		}
	}
	if _, err := trailerOf(framedTrailer(key, body(10, "alice", 5, "test"))); err != nil {
		t.Errorf("the well-formed body the cases mutate: %v", err)
	}
}

// TestKeyTrailerFieldBounds: fields a trailer cannot hold are refused at
// encode time.
func TestKeyTrailerFieldBounds(t *testing.T) {
	for name, tr := range map[string]keyTrailer{
		"empty id":         {params: "test"},
		"over-long id":     {clientID: strings.Repeat("x", MaxClientIDBytes+1)},
		"over-long params": {clientID: "x", params: strings.Repeat("p", 256)},
		"negative key":     {clientID: "x", keyBytes: -1},
	} {
		if _, err := appendKeyTrailer(nil, tr); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestDiskStoreCrashStates reopens the directory a crash leaves at each
// step boundary of a fresh Put of alice, a replacing Put of alice (whose
// key was s00000001.key) and a Delete of alice, beside bob's untouched
// key. Each must open to the store as it was before the operation or
// after it: bob and alice's acknowledged key read back, no older file
// brings a deleted alice back, keys/ holds the live key files alone and
// gone/ nothing; and a Put after the reopen commits over it. A directory
// holding the write-ahead log of the store's earlier format is refused
// with an error naming it, and left as it was.
func TestDiskStoreCrashStates(t *testing.T) {
	old, cur, bob := storeBlob(1, 64), storeBlob(2, 64), storeBlob(3, 64)
	const bobFile = "s00000009.key"
	torn := func(t *testing.T, b []byte) []byte { return b[:len(b)-trailerFooter/2] }
	badCRC := func(t *testing.T, b []byte) []byte {
		b[len(b)-trailerFooter-1] ^= 1 // the last body byte: the trailer's CRC fails
		return b
	}
	type file struct {
		path  string // relative to the store directory
		blob  []byte // alice's key, or bob's in bobFile
		spoil func(*testing.T, []byte) []byte
	}
	for _, c := range []struct {
		name  string
		files []file
		live  string // alice's key file after the reopen, "" for none
		alice []byte
	}{
		{"put: the temp file, its trailer torn", []file{{"keys/.tmp-1", cur, torn}}, "", nil},
		{"put: the temp file", []file{{"keys/.tmp-1", cur, nil}}, "", nil},
		{"put: renamed in", []file{{"keys/s00000002.key", cur, nil}}, "s00000002.key", cur},
		{"put: a trailer that fails its CRC", []file{{"keys/s00000002.key", cur, badCRC}}, "", nil},
		{"replace: the temp file", []file{{"keys/s00000001.key", old, nil}, {"keys/.tmp-1", cur, nil}}, "s00000001.key", old},
		{"replace: renamed in, the old file still a key", []file{{"keys/s00000001.key", old, nil}, {"keys/s00000002.key", cur, nil}}, "s00000002.key", cur},
		{"replace: the old file renamed out", []file{{"gone/s00000001.key", old, nil}, {"keys/s00000002.key", cur, nil}}, "s00000002.key", cur},
		{"replace: a trailer that fails its CRC", []file{{"keys/s00000001.key", old, nil}, {"keys/s00000002.key", cur, badCRC}}, "s00000001.key", old},
		{"delete: renamed out", []file{{"gone/s00000001.key", old, nil}, {"gone/s00000002.key", cur, nil}}, "", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, d := range []string{keysDirName, goneDirName} {
				if err := os.Mkdir(filepath.Join(dir, d), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			files := append(c.files, file{"keys/" + bobFile, bob, nil})
			for _, f := range files {
				id := "alice"
				if f.path == "keys/"+bobFile {
					id = "bob"
				}
				data := keyFileImage(t, id, f.blob)
				if f.spoil != nil {
					data = f.spoil(t, data)
				}
				if err := os.WriteFile(filepath.Join(dir, f.path), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			check := func(s *DiskStore, want map[string][]byte) {
				t.Helper()
				for _, id := range []string{"alice", "bob", "carol"} {
					got, err := getBlob(s, id)
					switch {
					case want[id] == nil && !errors.Is(err, ErrNotPersisted):
						t.Errorf("%s: %v, want ErrNotPersisted", id, err)
					case want[id] != nil && (err != nil || !bytes.Equal(got, want[id])):
						t.Errorf("%s reads back %d bytes (error %v), want the %d of its acknowledged key", id, len(got), err, len(want[id]))
					}
				}
				if gone, err := os.ReadDir(filepath.Join(dir, goneDirName)); err != nil || len(gone) != 0 {
					t.Errorf("gone/ holds %d files (%v) after the reopen", len(gone), err)
				}
			}
			s, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]byte{"alice": c.alice, "bob": bob}
			check(s, want)
			live := []string{bobFile}
			if c.live != "" {
				live = append(live, c.live)
			}
			slices.Sort(live)
			if got := keyFiles(t, dir); !slices.Equal(got, live) {
				t.Errorf("keys/ holds %v after the reopen, want %v", got, live)
			}
			if err := putBlob(s, "carol", cur); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = OpenDiskStore(dir); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want["carol"] = cur
			check(s, want)
		})
	}

	t.Run("the earlier format's write-ahead log", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, keysDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{oldLogName: []byte("SWAL\x01\x00\x00\x00"), "keys/s00000001.key": old} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if s, err := OpenDiskStore(dir); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, oldLogName)) {
			if s != nil {
				s.Close()
			}
			t.Fatalf("OpenDiskStore over an earlier format: %v, want an error naming its log", err)
		}
		if got := keyFiles(t, dir); !slices.Equal(got, []string{"s00000001.key"}) {
			t.Errorf("the refused directory's keys/ holds %v, want its key file untouched", got)
		}
	})
}
