package server

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tfhe"
)

// storeBlob is a small stand-in key blob (the store treats blobs as
// opaque bytes; only the parameter set its fill returns is interpreted).
func storeBlob(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// putBlob stores blob under id the way the server would: written through
// the store's writer, with ParamsTest as the decoded parameter set.
func putBlob(s SessionStore, id string, blob []byte) error {
	return s.Put(id, int64(len(blob)), func(w io.Writer) (tfhe.Params, error) {
		_, err := w.Write(blob)
		return tfhe.ParamsTest, err
	})
}

// getBlob reads id's stored key to its end.
func getBlob(s SessionStore, id string) ([]byte, error) {
	r, size, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	blob, err := io.ReadAll(r)
	if err == nil && int64(len(blob)) != size {
		err = fmt.Errorf("Get announced %d bytes and yielded %d", size, len(blob))
	}
	return blob, err
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
// a reopen, under the CRC-32 the WAL recorded. A fill that fails after
// 2 MB, with write-back already started on the temp file, leaves no temp
// file and no WAL record.
func TestDiskStorePutAcrossWriteBackWindows(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	payload := make([]byte, 3*writeBackWindow+writeBackWindow/3)
	rand.New(rand.NewSource(17)).Read(payload)
	fill := func(w io.Writer) (tfhe.Params, error) {
		for rest := payload; len(rest) > 0; {
			n := min(len(rest), 100_003)
			if _, err := w.Write(rest[:n]); err != nil {
				return tfhe.Params{}, err
			}
			rest = rest[n:]
		}
		return tfhe.ParamsTest, nil
	}
	if err := s.Put("big", int64(len(payload)), fill); err != nil {
		t.Fatal(err)
	}
	// The same writes through a writeBehind of its own: write-back has
	// started on every whole window and on nothing past them.
	f, err := os.CreateTemp(t.TempDir(), "wb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wb := &writeBehind{f: f}
	if _, err := fill(wb); err != nil {
		t.Fatal(err)
	}
	if wb.written != int64(len(payload)) || wb.started != 3*writeBackWindow {
		t.Errorf("writeBehind wrote %d bytes and started write-back of %d, want %d and %d",
			wb.written, wb.started, len(payload), 3*writeBackWindow)
	}
	if got, want := s.entries["big"].keyCRC, crc32.ChecksumIEEE(payload); got != want {
		t.Errorf("WAL recorded CRC-32 %#x, want %#x", got, want)
	}
	if got, err := getBlob(s, "big"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes (error %v), want the %d written", len(got), err, len(payload))
	}

	walPath := filepath.Join(dir, walFileName)
	walBefore, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	failed := errors.New("upload cut")
	err = s.Put("cut", int64(len(payload)), func(w io.Writer) (tfhe.Params, error) {
		if _, err := w.Write(payload[:2<<20]); err != nil {
			return tfhe.Params{}, err
		}
		return tfhe.Params{}, failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("Put with a failing fill: %v, want %v", err, failed)
	}
	names, err := os.ReadDir(filepath.Join(dir, keysDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || filepath.Ext(names[0].Name()) != ".key" {
		var ls []string
		for _, de := range names {
			ls = append(ls, de.Name())
		}
		t.Errorf("keys/ after a failed Put has %v, want only the committed .key", ls)
	}
	if walAfter, err := os.Stat(walPath); err != nil || walAfter.Size() != walBefore.Size() {
		t.Errorf("WAL grew from %d bytes across a failed Put (%v)", walBefore.Size(), err)
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
		t.Errorf("replayed WAL holds CRC-32 %#x, want %#x", got, want)
	}
	if got, err := getBlob(s, "big"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("reopened store read back %d bytes (error %v), want the %d written", len(got), err, len(payload))
	}
}

// TestDiskStoreTornWALTail simulates a crash mid-append: extra garbage
// and a half-written record after the last commit must be truncated on
// open, and every fully committed session must survive.
func TestDiskStoreTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "alice", storeBlob(1, 40)); err != nil {
		t.Fatal(err)
	}
	if err := putBlob(s, "bob", storeBlob(2, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	clean, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: the first half of what would have been a third record.
	torn := append(bytes.Clone(clean), 0x11, 0x22, 0x33, 0x44, 0x30, 0x00)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice", "bob"} {
		if _, err := getBlob(r, id); err != nil {
			t.Errorf("session %s lost to a torn tail: %v", id, err)
		}
	}
	// The tail must be gone from disk, so the next append lands on a
	// record boundary.
	repaired, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, clean) {
		t.Errorf("WAL after repair is %d bytes, want the clean %d", len(repaired), len(clean))
	}
	// And the store must keep working after the repair.
	if err := putBlob(r, "carol", storeBlob(3, 40)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := getBlob(r2, "carol"); err != nil {
		t.Errorf("post-repair registration lost: %v", err)
	}
}

// TestDiskStoreCorruptKeyFile proves Get detects silent key-file
// corruption via the WAL's recorded CRC instead of restoring a poisoned
// session.
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

// TestDiskStoreMissingKeyFile proves a committed record whose key file
// vanished is dropped on open (re-register beats restore-that-errors).
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
// on open: the orphan a crashed put leaves, and the .params sidecar older
// versions of the store kept beside a live key. Such a directory still
// opens, and its sessions list and restore from the WAL record alone.
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
