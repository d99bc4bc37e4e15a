package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMappedKeyOutlivesRequests: a request in flight on a disk-backed
// session, whose key slabs are views of the mapped key file, keeps the
// mapping alive when the warm tier lets the session go — evicted by
// another registration, replaced by a new key of its ID, or deleted — and
// computes bitwise what the sequential evaluator computes with that key.
// The mapping goes with the request.
func TestMappedKeyOutlivesRequests(t *testing.T) {
	sk, ekA := testKeys(t, 1)
	_, ekB := testKeys(t, 2)
	for name, drop := range map[string]func(*Server) error{
		"evicted":  func(srv *Server) error { return srv.RegisterKey("b", ekB) },
		"replaced": func(srv *Server) error { return srv.RegisterKey("a", ekB) },
		"deleted":  func(srv *Server) error { _, _, err := srv.DeleteSession("a"); return err },
	} {
		t.Run(name, func(t *testing.T) {
			base := liveMaps.Load()
			srv, err := Open(Config{MaxSessions: 1, DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain()
			if err := srv.RegisterKey("a", ekA); err != nil {
				t.Fatal(err)
			}
			sess := warmSession(srv, "a")

			// Park the request on the session's full backpressure slots,
			// holding its reference, until the warm tier has let go.
			unpark := park(sess)
			x := encryptBools(sk, 1, []bool{true, false, true, false})
			y := encryptBools(sk, 2, []bool{true, true, false, false})
			type result struct {
				out []tfhe.LWECiphertext
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := srv.GateBatch("a", engine.NAND, x, y)
				done <- result{out, err}
			}()
			waitFor(t, "the request to hold the session", func() bool { return sess.key.refs.Load() == 2 })
			if err := drop(srv); err != nil {
				unpark()
				t.Fatal(err)
			}
			if refs := sess.key.refs.Load(); refs != 1 {
				t.Errorf("after the warm tier let go the key has %d references, want the request's 1", refs)
			}
			unpark()

			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			ev := tfhe.NewEvaluator(ekA)
			for i := range x {
				if !tfhe.EqualLWE(res.out[i], ev.NAND(x[i], y[i])) {
					t.Errorf("NAND %d differs from the sequential evaluator's", i)
				}
			}
			if refs := sess.key.refs.Load(); refs != 0 {
				t.Errorf("after the request the key has %d references, want 0", refs)
			}
			if live, warm := liveMaps.Load()-base, int64(len(srv.Sessions())); live != warm {
				t.Errorf("%d key mappings live for %d warm sessions", live, warm)
			}
		})
	}
}

// TestLiveMappingsFollowWarmTier: across register/evict turns on a
// disk-backed server that keeps two sessions warm, exactly the warm
// sessions' key files stay mapped; after a drain none do.
func TestLiveMappingsFollowWarmTier(t *testing.T) {
	base := liveMaps.Load()
	srv, err := Open(Config{MaxSessions: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c", "d"}
	for turn := 0; turn < 20; turn++ {
		sk, ek := testKeys(t, int64(1+turn%3))
		id := ids[turn%len(ids)]
		if err := srv.RegisterKey(id, ek); err != nil {
			t.Fatal(err)
		}
		out, err := srv.GateBatch(id, engine.NOT, encryptBools(sk, int64(turn), []bool{true}), nil)
		if err != nil || sk.DecryptBool(out[0]) {
			t.Fatalf("turn %d: NOT true = %v, %v", turn, out, err)
		}
		if live, warm := liveMaps.Load()-base, int64(len(srv.Sessions())); live != warm || warm != min(int64(turn+1), 2) {
			t.Fatalf("turn %d: %d key mappings live for %d warm sessions", turn, live, warm)
		}
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if live := liveMaps.Load() - base; live != 0 {
		t.Errorf("%d key mappings live after the drain", live)
	}
}

// TestDiskStoreCloseWithWarmMappedSession: closing the store under a warm
// session whose key is mapped from it leaves the session serving, since a
// mapping does not depend on the store's open files; the drain after it
// releases the mapping.
func TestDiskStoreCloseWithWarmMappedSession(t *testing.T) {
	sk, ek := testKeys(t, 1)
	base := liveMaps.Load()
	srv, err := Open(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterKey("a", ek); err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Close(); err != nil {
		t.Fatal(err)
	}
	out, err := srv.GateBatch("a", engine.NAND, encryptBools(sk, 1, []bool{true}), encryptBools(sk, 2, []bool{true}))
	if err != nil || sk.DecryptBool(out[0]) {
		t.Fatalf("NAND(true, true) on a closed store's warm session = %v, %v", out, err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if live := liveMaps.Load() - base; live != 0 {
		t.Errorf("%d key mappings live after the drain", live)
	}
}

// tornWAL is a WAL whose next Write, when tear is set, writes half its
// frame and fails, as on a full disk, and whose Truncate fails with
// truncErr when that is set.
type tornWAL struct {
	walFile
	tear     bool
	truncErr error
}

func (w *tornWAL) Write(p []byte) (int, error) {
	if !w.tear {
		return w.walFile.Write(p)
	}
	w.tear = false
	n, _ := w.walFile.Write(p[:len(p)/2])
	return n, errors.New("no space left on device")
}

func (w *tornWAL) Truncate(size int64) error {
	if w.truncErr != nil {
		return w.truncErr
	}
	return w.walFile.Truncate(size)
}

// TestWALAppendFailureLosesNothing: a WAL append that fails half-written
// fails its registration, and the registration acknowledged after it
// survives a reopen, restored bitwise. Replay stops at the first bad
// frame, so the half frame must not stay in front of it. When the WAL
// cannot be cut back, the store fails closed instead.
func TestWALAppendFailureLosesNothing(t *testing.T) {
	skA, ekA := testKeys(t, 1)
	skB, ekB := testKeys(t, 2)
	x := encryptBools(skB, 1, []bool{true, false, true})
	y := encryptBools(skB, 2, []bool{true, true, false})

	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.wal = &tornWAL{walFile: store.wal, tear: true}
	srv := New(Config{Store: store})
	if err := srv.RegisterKey("a", ekA); !errors.Is(err, errStoreFailure) {
		t.Fatalf("registration over a failing WAL append: %v, want a store failure", err)
	}
	if err := srv.RegisterKey("b", ekB); err != nil {
		t.Fatalf("registration after a failed WAL append: %v", err)
	}
	pre, err := srv.GateBatch("b", engine.NAND, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	srv, err = Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	post, err := srv.GateBatch("b", engine.NAND, x, y)
	if err != nil {
		t.Fatalf("the registration acknowledged after the failed append is lost: %v", err)
	}
	for i := range pre {
		if !tfhe.EqualLWE(pre[i], post[i]) {
			t.Errorf("restored NAND %d differs from the one before the reopen", i)
		}
	}
	if _, err := srv.GateBatch("a", engine.NOT, encryptBools(skA, 3, []bool{true}), nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("the failed registration: %v, want %v", err, ErrUnknownSession)
	}

	t.Run("cut back fails", func(t *testing.T) {
		dir := t.TempDir()
		store, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := putBlob(store, "kept", storeBlob(1, 64)); err != nil {
			t.Fatal(err)
		}
		store.wal = &tornWAL{walFile: store.wal, tear: true, truncErr: errors.New("I/O error")}
		if err := putBlob(store, "a", storeBlob(2, 64)); err == nil {
			t.Fatal("Put over a failing WAL append succeeded")
		}
		if err := putBlob(store, "b", storeBlob(3, 64)); err == nil {
			t.Error("Put after the WAL could not be cut back succeeded")
		}
		if _, err := store.Delete("kept"); err == nil {
			t.Error("Delete after the WAL could not be cut back succeeded")
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if store, err = OpenDiskStore(dir); err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if got := store.List(); len(got) != 1 || got[0].ClientID != "kept" {
			t.Errorf("reopened store lists %+v, want only the key committed before the failure", got)
		}
	})
}

// TestMemStoreRegisterChecksHeaderFirst: an upload into a MemStore server
// whose header is garbage, or whose valid header promises a gigabyte key
// and then stops, buys no storage of the declared size — before the
// header check the store allocated it whole.
func TestMemStoreRegisterChecksHeaderFirst(t *testing.T) {
	srv := New(Config{Store: NewMemStore()})
	defer srv.Drain()
	blob := make([]byte, 1<<30)
	copy(blob, "not a key header")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := srv.RegisterKeyEncoded("a", blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a gigabyte of garbage registered")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 4<<20 {
		t.Errorf("a %d-byte upload with a bad header allocated %d bytes", len(blob), grown)
	}

	headerOnlyUpload(t, srv)
}

// TestDiskStoreRegisterChecksHeaderFirst: the header-only set IV upload of
// TestMemStoreRegisterChecksHeaderFirst, into a DiskStore server, buys
// neither memory (the pooled copy buffer counted) nor a file or record:
// it leaves no temp file and the WAL as it was.
func TestDiskStoreRegisterChecksHeaderFirst(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	walPath := filepath.Join(dir, walFileName)
	walBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Two collections empty the copy-buffer pool, so the upload's buffer
	// is allocated inside the measurement.
	runtime.GC()
	runtime.GC()
	headerOnlyUpload(t, srv)
	if names := tempFiles(t, dir); len(names) != 0 {
		t.Errorf("a refused upload left temp files %v", names)
	}
	if walAfter, err := os.ReadFile(walPath); err != nil || !bytes.Equal(walAfter, walBefore) {
		t.Errorf("a refused upload changed the WAL from %d to %d bytes (%v)", len(walBefore), len(walAfter), err)
	}
}

// headerOnlyUpload uploads a valid set IV key header into srv and then
// nothing: the upload must be refused as short, having allocated < 4 MB
// of the gigabyte its header declares, and install no session.
func headerOnlyUpload(t *testing.T, srv *Server) {
	t.Helper()
	// A set IV key's header: its parameter object, retagged and padded.
	header, err := wire.MarshalParams(tfhe.ParamsIV)
	if err != nil {
		t.Fatal(err)
	}
	header[4], header[5] = wire.EvalKeyVersion, byte(wire.KindEvalKey)
	header = append(header, make([]byte, -len(header)&63)...)
	size, _ := wire.EvalKeySize(tfhe.ParamsIV)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = srv.registerFrom("a", size, bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "short") {
		t.Fatalf("a header-only set IV upload: %v, want one refused as short", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 4<<20 {
		t.Errorf("a header-only upload declaring %d bytes allocated %d bytes", size, grown)
	}
	if got := srv.Sessions(); len(got) != 0 {
		t.Errorf("refused uploads installed sessions %v", got)
	}
}
