package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// uploadRequest builds a key upload of size declared bytes read from body.
func uploadRequest(t *testing.T, base, id string, body io.Reader, size int64) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+SessionPath(id), body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/octet-stream")
	return req
}

// tempFiles lists the in-progress upload files of a DiskStore directory.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, keysDirName, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// within fails the test when do has not returned after five seconds.
func within(t *testing.T, what string, do func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- do() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not answer while an upload was stalled", what)
	}
}

// TestStalledUploadBlocksNothing stalls a key upload halfway through its
// body and requires the rest of a disk-backed server to carry on: stats
// and the session listing (both read the store's manifest) and the
// restore of another client's session from disk. The store used to hold
// its lock from the first byte of a key file to the WAL fsync.
func TestStalledUploadBlocksNothing(t *testing.T) {
	sk, ek := testKeys(t, 1)
	dir := t.TempDir()
	srv, err := Open(Config{DataDir: dir, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// "cold" is persisted, then pushed out of the one warm slot.
	for _, id := range []string{"cold", "warm"} {
		if err := srv.RegisterKey(id, ek); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := wire.MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	uploaded := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(uploadRequest(t, ts.URL, "slow", pr, int64(len(blob))))
		if err == nil {
			if resp.Body.Close(); resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		uploaded <- err
	}()
	if _, err := pw.Write(blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(tempFiles(t, dir)) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the upload never reached the store")
		}
		time.Sleep(time.Millisecond)
	}

	cl := Dial(ts.URL, "cold")
	within(t, "GET /v1/stats", func() error { _, err := cl.Stats(); return err })
	within(t, "GET /v1/sessions", func() error {
		infos, err := cl.Sessions()
		if err == nil && len(infos) != 2 {
			err = fmt.Errorf("%d sessions listed, want the 2 committed ones", len(infos))
		}
		return err
	})
	within(t, "restoring another session", func() error {
		out, err := cl.GateBatch(engine.NOT, encryptBools(sk, 1, []bool{true}), nil)
		if err == nil && sk.DecryptBool(out[0]) {
			err = errors.New("NOT(true) decrypted true")
		}
		return err
	})
	if srv.Restores() == 0 {
		t.Error("the cold session was served without a restore from disk")
	}

	if _, err := pw.Write(blob[len(blob)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-uploaded; err != nil {
		t.Fatalf("stalled upload, once resumed: %v", err)
	}
	if got := len(srv.Store().List()); got != 3 {
		t.Errorf("%d sessions persisted after the upload, want 3", got)
	}
}

// touchBody records whether anything read it.
type touchBody struct {
	io.Reader
	touched atomic.Bool
}

func (b *touchBody) Read(p []byte) (int, error) {
	b.touched.Store(true)
	return b.Reader.Read(p)
}

// TestUploadRefusedBeforeBody pins what lets a router try another backend
// and spares a client 49 MB: a request the server will not take — an ID
// it rejects, a drain in progress — is answered without reading a body
// byte, so a sender that waits for 100 Continue never sends one.
func TestUploadRefusedBeforeBody(t *testing.T) {
	_, ek := testKeys(t, 1)
	blob, err := wire.MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	refused := func(id string, status int, code string) {
		t.Helper()
		body := &touchBody{Reader: strings.NewReader(string(blob))}
		req := uploadRequest(t, ts.URL, id, body, int64(len(blob)))
		req.Header.Set("Expect", "100-continue")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := decodeReply(resp, nil); !isAPICode(err, code) || resp.StatusCode != status {
			t.Errorf("upload as %.12q: %v, want HTTP %d %s", id, err, status, code)
		}
		if body.touched.Load() {
			t.Errorf("upload as %.12q: the body was read before the refusal", id)
		}
	}
	refused(strings.Repeat("x", MaxClientIDBytes+1), http.StatusBadRequest, CodeBadRequest)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	refused("late", http.StatusServiceUnavailable, CodeShuttingDown)
	if got := srv.Sessions(); len(got) != 0 {
		t.Errorf("refused uploads installed sessions %v", got)
	}

	// The typed client sees the same refusal, not a broken pipe.
	cl := Dial(ts.URL, "late")
	cl.SetRetry(0, time.Millisecond)
	if err := cl.RegisterKey(ek); !isAPICode(err, CodeShuttingDown) {
		t.Errorf("Client.RegisterKey while draining: %v, want shutting_down", err)
	}
}

// failingStore is a MemStore whose writer fails once it has taken after
// bytes: a disk filling up under an upload.
type failingStore struct {
	*MemStore
	after int
}

func (f failingStore) Put(clientID string, size int64, fill func(io.Writer) (tfhe.Params, error)) error {
	return f.MemStore.Put(clientID, size, func(w io.Writer) (tfhe.Params, error) {
		return fill(&failingWriter{w: w, left: f.after})
	})
}

type failingWriter struct {
	w    io.Writer
	left int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n, _ := f.w.Write(p[:f.left])
		f.left = 0
		return n, errors.New("no space left on device")
	}
	f.left -= len(p)
	return f.w.Write(p)
}

// TestStoreWriterFailsMidRegister injects a store whose writer fails
// partway through the key: the registration is the server's failure
// (500 internal), not a bad key, and leaves nothing behind — no warm
// session, no stored key — whichever way the key came in.
func TestStoreWriterFailsMidRegister(t *testing.T) {
	_, ek := testKeys(t, 1)
	store := failingStore{MemStore: NewMemStore(), after: 100_000}
	srv := New(Config{Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := Dial(ts.URL, "alice")
	err := cl.RegisterKey(ek)
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusInternalServerError || api.Code != CodeInternal {
		t.Errorf("upload into a failing store: %v, want HTTP 500 internal", err)
	}
	if err := srv.RegisterKey("alice", ek); !errors.Is(err, errStoreFailure) {
		t.Errorf("RegisterKey into a failing store: %v, want a store failure", err)
	}
	if got := srv.Sessions(); len(got) != 0 {
		t.Errorf("failed registrations installed sessions %v", got)
	}
	if got := store.List(); len(got) != 0 {
		t.Errorf("failed registrations stored %+v", got)
	}
}

// TestRegisterKeyRefusesNonFiniteKey: a key with a NaN in its BSK would
// register and then, once evicted to the store, never decode again. The
// encoder refuses it as it writes the value, so RegisterKey fails with or
// without a store, and nothing is installed or stored.
func TestRegisterKeyRefusesNonFiniteKey(t *testing.T) {
	_, ek := testKeys(t, 1)
	bad := ek
	bad.BSK = slices.Clone(ek.BSK)
	bad.BSK[2] = slices.Clone(ek.BSK[2])
	bad.BSK[2][100] = complex(math.NaN(), 0)
	store := NewMemStore()
	for name, srv := range map[string]*Server{"storeless": New(Config{}), "MemStore": New(Config{Store: store})} {
		if err := srv.RegisterKey("a", bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: RegisterKey of a key with a NaN: %v, want a non-finite error", name, err)
		}
		if got := srv.Sessions(); len(got) != 0 {
			t.Errorf("%s: the refused key installed sessions %v", name, got)
		}
	}
	if got := store.List(); len(got) != 0 {
		t.Errorf("the refused key was stored: %+v", got)
	}
}

// TestPutAbortedLeavesPreviousKey pins the store half of the durable-first
// contract on both implementations: a fill that fails, or that writes a
// different length than it declared, stores nothing — the ID's previous
// key stays readable, no temp file is left in keys/, and the WAL does not
// grow by a byte.
func TestPutAbortedLeavesPreviousKey(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, s := range map[string]SessionStore{"mem": NewMemStore(), "disk": disk} {
		first := storeBlob(1, 500)
		if err := putBlob(s, "alice", first); err != nil {
			t.Fatal(err)
		}
		wal, err := os.Stat(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatal(err)
		}

		boom := errors.New("client hung up")
		err = s.Put("alice", 800, func(w io.Writer) (tfhe.Params, error) {
			w.Write(storeBlob(2, 400))
			return tfhe.Params{}, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("%s: Put with a failing fill: %v, want the fill's error", name, err)
		}
		err = s.Put("alice", 800, func(w io.Writer) (tfhe.Params, error) {
			_, err := w.Write(storeBlob(3, 700))
			return tfhe.ParamsTest, err
		})
		if err == nil {
			t.Errorf("%s: Put accepted 700 bytes declared as 800", name)
		}
		if got, err := getBlob(s, "alice"); err != nil || !bytes.Equal(got, first) {
			t.Errorf("%s: after two aborted Puts Get yields %d bytes (%v), want the committed key", name, len(got), err)
		}
		if name != "disk" {
			continue
		}
		if left := tempFiles(t, dir); len(left) != 0 {
			t.Errorf("aborted Puts left %v", left)
		}
		now, err := os.Stat(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		if now.Size() != wal.Size() {
			t.Errorf("aborted Puts grew the WAL from %d to %d bytes", wal.Size(), now.Size())
		}
	}
}
