package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/cmd/internal/cmdtest"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tfhe"
)

// startServer launches the built binary with args, waits for the
// listening announcement on stdout, and returns the process and bound
// address. The process is killed at test cleanup if still running.
func startServer(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	lineCh := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stdout)
		if scanner.Scan() {
			lineCh <- scanner.Text()
		}
		close(lineCh)
		// Drain the rest so the child never blocks on a full pipe.
		for scanner.Scan() {
		}
	}()
	select {
	case line := <-lineCh:
		const prefix = "strixserv: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected first line %q", line)
		}
		return cmd, strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its address")
		return nil, ""
	}
}

// stopServer SIGTERMs the process and requires a clean drain + exit.
func stopServer(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestRestartPersistence is the durability acceptance test as a real
// process lifecycle: keys registered against one strixserv -data process
// must survive its SIGTERM drain, and a second process over the same
// directory must evaluate for the old session — bitwise identically —
// without any re-upload.
func TestRestartPersistence(t *testing.T) {
	bin := cmdtest.Build(t)
	dataDir := t.TempDir()

	rng := rand.New(rand.NewSource(7))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	bits := []bool{true, false, true, true}
	cts := make([]tfhe.LWECiphertext, len(bits))
	for i, b := range bits {
		cts[i] = sk.EncryptBool(rng, b)
	}

	cmd1, addr1 := startServer(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	cl1 := server.Dial("http://"+addr1, "durable-client")
	if err := cl1.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}
	pre, err := cl1.GateBatch(engine.NOT, cts, nil)
	if err != nil {
		t.Fatal(err)
	}
	stopServer(t, cmd1)

	// Second process, same directory: the session must already be there.
	cmd2, addr2 := startServer(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	cl2 := server.Dial("http://"+addr2, "durable-client")

	infos, err := cl2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "durable-client" || !infos[0].Persisted || infos[0].Warm {
		t.Fatalf("sessions after restart = %+v, want one cold persisted durable-client", infos)
	}

	post, err := cl2.GateBatch(engine.NOT, cts, nil)
	if err != nil {
		t.Fatalf("restored session failed after restart: %v", err)
	}
	for i := range pre {
		if !tfhe.EqualLWE(pre[i], post[i]) {
			t.Fatalf("output %d differs across process restart", i)
		}
		if got := sk.DecryptBool(post[i]); got != !bits[i] {
			t.Errorf("NOT(bits[%d]) = %v, want %v", i, got, !bits[i])
		}
	}
	stopServer(t, cmd2)
}

// TestSmoke starts strixserv on an ephemeral port, hits the stats
// endpoint over real HTTP, and shuts it down with SIGTERM.
func TestSmoke(t *testing.T) {
	bin := cmdtest.Build(t)

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-sessions", "4")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	var addr string
	scanner := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		if scanner.Scan() {
			lineCh <- scanner.Text()
		}
		close(lineCh)
	}()
	select {
	case line := <-lineCh:
		const prefix = "strixserv: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected first line %q", line)
		}
		addr = strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its address")
	}

	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats struct {
		MaxSessions int `json:"max_sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.MaxSessions != 4 {
		t.Errorf("max_sessions = %d, want the configured 4", stats.MaxSessions)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("server exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestBadFlags asserts a bad listen address fails fast with a non-zero
// exit.
func TestBadFlags(t *testing.T) {
	bin := cmdtest.Build(t)
	out, err := cmdtest.RunErr(t, bin, "-addr", "not-an-address")
	if err == nil {
		t.Errorf("bad -addr succeeded:\n%s", out)
	}
}
