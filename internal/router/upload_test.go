package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// encodedKey returns the wire encoding of ek.
func encodedKey(t *testing.T, ek tfhe.EvaluationKeys) []byte {
	t.Helper()
	blob, err := wire.MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// eventually polls cond for five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterPipesUpload proves the router holds nothing of a key: the
// backend reads the first body bytes while the client has yet to write the
// last. A router that buffered the body would deadlock here — the client
// only finishes once the backend has reported in.
func TestRouterPipesUpload(t *testing.T) {
	_, ek := testKeys(t)
	blob := encodedKey(t, ek)
	first := make(chan struct{})
	var received atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/healthz" {
			writeOK(w, server.HealthResponse{Status: "ok"})
			return
		}
		if req.ContentLength != int64(len(blob)) {
			t.Errorf("backend saw Content-Length %d (chunked: %v), want %d", req.ContentLength, req.TransferEncoding, len(blob))
		}
		var one [1]byte
		if _, err := io.ReadFull(req.Body, one[:]); err != nil {
			t.Errorf("backend: first body byte: %v", err)
		}
		close(first)
		n, _ := io.Copy(io.Discard, req.Body)
		received.Store(n + 1)
		writeOK(w, server.RegisterKeyResponse{Params: "test", KeyBytes: n + 1})
	}))
	defer backend.Close()
	r, rts := newRouter(t, fastConfig(backend.URL))

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, rts.URL+server.SessionPath("piped"), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(blob))
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if resp.Body.Close(); resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	if _, err := pw.Write(blob[:len(blob)/2]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("the backend saw no body byte while the client still held half the key: the router buffers")
	}
	if _, err := pw.Write(blob[len(blob)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("piped upload: %v", err)
	}
	if got := received.Load(); got != int64(len(blob)) {
		t.Errorf("backend received %d bytes, want %d", got, len(blob))
	}
	if r.pool.pinCount(r.pool.backends[0]) != 1 {
		t.Error("a successful upload did not pin the session")
	}
}

// TestUploadClientDisconnect cuts an upload off halfway, dialled direct
// and through the router. Nothing of it may remain: no session swap — the
// ID's previous session still answers under its own keys — no WAL record,
// no temp file in keys/, and the router's inflight slot comes back.
func TestUploadClientDisconnect(t *testing.T) {
	sk, ek := testKeys(t)
	_, ek2 := tfhe.GenerateKeys(rand.New(rand.NewSource(2)), tfhe.ParamsTest)
	blob := encodedKey(t, ek2)
	for _, mode := range []string{"direct", "routed"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := server.Open(server.Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			base := ts.URL
			var r *Router
			if mode == "routed" {
				var rts *httptest.Server
				r, rts = newRouter(t, fastConfig(ts.URL))
				base = rts.URL
			}
			cl := server.Dial(base, "alice")
			if err := cl.RegisterKey(ek); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, "wal")
			before, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}

			// Half a replacement key over a raw connection, then hang up.
			conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
				server.SessionPath("alice"), len(blob))
			if _, err := conn.Write(blob[:len(blob)/2]); err != nil {
				t.Fatal(err)
			}
			tmps := func() []string {
				names, _ := filepath.Glob(filepath.Join(dir, "keys", ".tmp-*"))
				return names
			}
			eventually(t, "the upload reaches the store", func() bool { return len(tmps()) > 0 })
			conn.Close()
			eventually(t, "the aborted upload is cleaned up", func() bool { return len(tmps()) == 0 })
			if r != nil {
				eventually(t, "the router releases the inflight slot", func() bool { return len(r.admit) == 0 })
			}

			if after, err := os.Stat(walPath); err != nil || after.Size() != before.Size() {
				t.Errorf("WAL grew from %d to %d bytes (%v) on an aborted upload", before.Size(), after.Size(), err)
			}
			if list := srv.Store().List(); len(list) != 1 || list[0].ClientID != "alice" {
				t.Errorf("store lists %+v, want alice alone", list)
			}
			bits := []bool{true, false}
			out, err := cl.GateBatch(engine.NOT, encryptBools(sk, 40, bits), nil)
			if err != nil {
				t.Fatalf("previous session after an aborted replacement: %v", err)
			}
			for i, b := range bits {
				if sk.DecryptBool(out[i]) != !b {
					t.Errorf("item %d: the session no longer computes under its original keys", i)
				}
			}
		})
	}
}

// TestUploadRefusedAheadOfBodyRetries is the other half of retrying
// without a buffer: the home backend is draining but not yet ejected, so
// it refuses the upload — ahead of the body, because the router asked for
// 100 Continue — and the same, still unread, inbound body then goes to the
// healthy backend within the one client request.
func TestUploadRefusedAheadOfBodyRetries(t *testing.T) {
	_, ek := testKeys(t)
	srvA, tsA := newBackend(t)
	srvB, tsB := newBackend(t)
	cfg := fastConfig(tsA.URL, tsB.URL)
	cfg.ProbeInterval = time.Hour // the drain is discovered by the forward, not by a probe
	r, rts := newRouter(t, cfg)

	id := ""
	for i := 0; i < 256 && id == ""; i++ {
		if c := fmt.Sprintf("rerouted-%d", i); r.ShardOf(c) == tsA.URL {
			id = c
		}
	}
	if id == "" {
		t.Fatal("no candidate ID hashes to backend A")
	}
	if err := srvA.Drain(); err != nil {
		t.Fatal(err)
	}
	cl := server.Dial(rts.URL, id)
	cl.SetRetry(0, time.Millisecond) // the router's retry, not the client's
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatalf("upload with the home backend draining: %v", err)
	}
	if !sessionIDs(srvB)[id] {
		t.Error("the upload did not land on the healthy backend")
	}
	if r.pool.backends[0].isHealthy() {
		t.Error("a shutting_down refusal did not count against the draining backend")
	}
}

// TestBackendDiesMidUpload covers the forward that cannot be replayed:
// the home backend takes part of the key and drops the connection. The
// router must not re-send a body it no longer has; it answers a retryable
// 503 (having let the client finish sending), ejects the node, and the
// client's own retry — a fresh body — lands on the surviving backend.
func TestBackendDiesMidUpload(t *testing.T) {
	_, ek := testKeys(t)
	srvLive, tsLive := newBackend(t)
	var died atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/healthz" {
			writeOK(w, server.HealthResponse{Status: "ok"})
			return
		}
		io.CopyN(io.Discard, req.Body, 100_000)
		died.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer dying.Close()
	cfg := fastConfig(tsLive.URL, dying.URL)
	cfg.ProbeInterval = time.Hour // the dying node answers probes; only the forward ejects it
	r, rts := newRouter(t, cfg)

	id := ""
	for i := 0; i < 256 && id == ""; i++ {
		if c := fmt.Sprintf("unlucky-%d", i); r.ShardOf(c) == dying.URL {
			id = c
		}
	}
	if id == "" {
		t.Fatal("no candidate ID hashes to the dying backend")
	}

	// One attempt, no client retry: the refusal itself.
	once := server.Dial(rts.URL, id)
	once.SetRetry(0, time.Millisecond)
	err := once.RegisterKey(ek)
	var api *server.APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable || !api.Temporary() {
		t.Fatalf("upload to a backend that dies mid-body: %v, want a retryable 503", err)
	}
	if got := died.Load(); got != 1 {
		t.Errorf("the dying backend saw %d attempts, want 1 (a consumed body is not replayed)", got)
	}
	if sessionIDs(srvLive)[id] {
		t.Error("the half-consumed body reached the live backend")
	}

	// The node was ejected by that failure; the client's loop re-sends.
	if err := server.Dial(rts.URL, id).RegisterKey(ek); err != nil {
		t.Fatalf("re-sent upload: %v", err)
	}
	if !sessionIDs(srvLive)[id] {
		t.Error("the re-sent upload did not land on the live backend")
	}
}

// TestEvalBodyReadErrorIsBadRequest pins the status of an /v2/eval body
// the router could not finish reading: a client that sends less than it
// declared made a bad request; only a body over the bound is too_large.
func TestEvalBodyReadErrorIsBadRequest(t *testing.T) {
	_, ts := newBackend(t)
	_, rts := newRouter(t, fastConfig(ts.URL))

	conn, err := net.Dial("tcp", strings.TrimPrefix(rts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v2/eval HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"client_id\":")
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := strings.Cut(string(reply), "\r\n\r\n")
	var er server.ErrorResponse
	if !strings.HasPrefix(head, "HTTP/1.1 400 ") || json.Unmarshal([]byte(body), &er) != nil || er.Code != server.CodeBadRequest {
		t.Errorf("truncated eval body answered %q, want 400 %s", reply, server.CodeBadRequest)
	}
}

// TestClientIDsWithURLMetacharacters registers, evaluates and deletes
// sessions whose IDs would change the request line if sent raw, direct and
// routed: each names exactly one session, and never its neighbour "a".
func TestClientIDsWithURLMetacharacters(t *testing.T) {
	sk, ek := testKeys(t)
	for _, mode := range []string{"direct", "routed"} {
		t.Run(mode, func(t *testing.T) {
			srv, ts := newBackend(t)
			base := ts.URL
			if mode == "routed" {
				_, rts := newRouter(t, fastConfig(ts.URL))
				base = rts.URL
			}
			want := map[string]bool{"a": true}
			if err := srv.RegisterKey("a", ek); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"a/b", "a?b", "a%2Fb"} {
				cl := server.Dial(base, id)
				if err := cl.RegisterKey(ek); err != nil {
					t.Fatalf("RegisterKey as %q: %v", id, err)
				}
				want[id] = true
				if got := sessionIDs(srv); !reflect.DeepEqual(got, want) {
					t.Fatalf("after registering %q: sessions %v, want %v", id, got, want)
				}
				out, err := cl.GateBatch(engine.NOT, encryptBools(sk, 50, []bool{true}), nil)
				if err != nil || sk.DecryptBool(out[0]) {
					t.Errorf("GateBatch as %q: %v", id, err)
				}
				if resp, err := cl.DeleteSession(id); err != nil || !resp.Warm {
					t.Errorf("DeleteSession(%q) = %+v, %v", id, resp, err)
				}
				delete(want, id)
				if got := sessionIDs(srv); !reflect.DeepEqual(got, want) {
					t.Fatalf("after deleting %q: sessions %v, want %v", id, got, want)
				}
			}
		})
	}
}

// TestDotClientIDsRefused pins that "." and ".." are not client IDs on
// any path in: a mux cleans either out of a request line, so such a
// session could be neither addressed nor deleted over HTTP. In process,
// from the Go client, and from a peer that escapes the dots so that they
// do reach the handler, direct and routed, register and delete answer
// bad_request and register nothing.
func TestDotClientIDsRefused(t *testing.T) {
	_, ek := testKeys(t)
	blob := encodedKey(t, ek)
	srv, ts := newBackend(t)
	_, rts := newRouter(t, fastConfig(ts.URL))
	if err := srv.RegisterKey("a", ek); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a": true}
	check := func(what string, err error) {
		t.Helper()
		var api *server.APIError
		if !errors.As(err, &api) || api.Code != server.CodeBadRequest || api.Status != http.StatusBadRequest {
			t.Errorf("%s = %v, want HTTP 400 %s", what, err, server.CodeBadRequest)
		}
		if got := sessionIDs(srv); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: sessions %v, want %v", what, got, want)
		}
	}
	// raw sends the request a peer would that escapes the dots, and
	// returns the reply as the Go client would have decoded it.
	raw := func(method, base, id string, body []byte) error {
		t.Helper()
		req, err := http.NewRequest(method, base+"/v1/sessions/"+strings.ReplaceAll(id, ".", "%2E"), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Expect", "100-continue") // a refused key is never sent
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			return fmt.Errorf("HTTP %d with no error frame: %v", resp.StatusCode, err)
		}
		return &server.APIError{Code: er.Code, Status: resp.StatusCode, Message: er.Error}
	}
	for _, id := range []string{".", ".."} {
		err := srv.RegisterKey(id, ek)
		if err == nil {
			t.Errorf("in-process RegisterKey(%q) succeeded", id)
		}
		if _, _, err := srv.DeleteSession(id); err == nil || errors.Is(err, server.ErrUnknownSession) {
			t.Errorf("in-process DeleteSession(%q) = %v, want the ID refused", id, err)
		}
		if got := sessionIDs(srv); !reflect.DeepEqual(got, want) {
			t.Fatalf("after in-process %q: sessions %v, want %v", id, got, want)
		}
		for _, front := range []struct{ name, base string }{{"direct", ts.URL}, {"routed", rts.URL}} {
			cl := server.Dial(front.base, id)
			check(fmt.Sprintf("%s Client.RegisterKey as %q", front.name, id), cl.RegisterKey(ek))
			_, err := cl.DeleteSession(id)
			check(fmt.Sprintf("%s Client.DeleteSession(%q)", front.name, id), err)
			check(fmt.Sprintf("%s escaped POST %q", front.name, id), raw(http.MethodPost, front.base, id, blob))
			check(fmt.Sprintf("%s escaped DELETE %q", front.name, id), raw(http.MethodDelete, front.base, id, nil))
		}
	}
}
