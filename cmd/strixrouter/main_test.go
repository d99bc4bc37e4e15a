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

// startProc launches a built binary, waits for its listening announcement
// on stdout (the first line, "PREFIX listening on ADDR"), and returns the
// process and bound address. Killed at test cleanup if still running.
func startProc(t *testing.T, bin, prefix string, args ...string) (*exec.Cmd, string) {
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
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected first line %q, want prefix %q", line, prefix)
		}
		return cmd, strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		t.Fatal("process never announced its address")
		return nil, ""
	}
}

// stopProc SIGTERMs the process and requires a clean drain + exit.
func stopProc(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("process exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("process did not exit after SIGTERM")
	}
}

// TestClusterSmoke boots a real two-backend cluster — two strixserv
// processes plus a strixrouter process in front — registers a key through
// the router, evaluates a gate batch end to end, checks the cluster view
// reports both backends healthy, and drains the router with SIGTERM.
func TestClusterSmoke(t *testing.T) {
	routerBin := cmdtest.Build(t)
	servBin := cmdtest.BuildPkg(t, "repro/cmd/strixserv")

	const servPrefix = "strixserv: listening on "
	_, addrA := startProc(t, servBin, servPrefix, "-addr", "127.0.0.1:0")
	_, addrB := startProc(t, servBin, servPrefix, "-addr", "127.0.0.1:0")

	rtCmd, rtAddr := startProc(t, routerBin, "strixrouter: listening on ",
		"-addr", "127.0.0.1:0",
		"-backends", "http://"+addrA+",http://"+addrB,
		"-probe-interval", "100ms")

	// The whole single-node API must work through the routing tier.
	rng := rand.New(rand.NewSource(11))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	cl := server.Dial("http://"+rtAddr, "smoke-client")
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatalf("register through router: %v", err)
	}
	bits := []bool{true, false, true, true}
	a := make([]tfhe.LWECiphertext, len(bits))
	b := make([]tfhe.LWECiphertext, len(bits))
	for i, bit := range bits {
		a[i] = sk.EncryptBool(rng, bit)
		b[i] = sk.EncryptBool(rng, true)
	}
	out, err := cl.GateBatch(engine.NAND, a, b)
	if err != nil {
		t.Fatalf("gate batch through router: %v", err)
	}
	for i, bit := range bits {
		if got := sk.DecryptBool(out[i]); got != !(bit && true) {
			t.Errorf("NAND(bits[%d], true) = %v, want %v", i, got, !bit)
		}
	}

	// The cluster view must show both backends healthy and the session
	// pinned to exactly one of them.
	resp, err := http.Get("http://" + rtAddr + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status %d", resp.StatusCode)
	}
	var cluster struct {
		Backends []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Pins    int    `json:"pins"`
		} `json:"backends"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cluster); err != nil {
		t.Fatal(err)
	}
	if len(cluster.Backends) != 2 || cluster.Draining {
		t.Fatalf("cluster view = %+v, want 2 backends, not draining", cluster)
	}
	pins := 0
	for _, be := range cluster.Backends {
		if !be.Healthy {
			t.Errorf("backend %s unhealthy in cluster view", be.URL)
		}
		pins += be.Pins
	}
	if pins != 1 {
		t.Errorf("total pins = %d, want the one registered session", pins)
	}

	stopProc(t, rtCmd)
}

// TestBadFlags asserts the router refuses to start without backends and
// with a malformed listen address.
func TestBadFlags(t *testing.T) {
	bin := cmdtest.Build(t)
	if out, err := cmdtest.RunErr(t, bin); err == nil {
		t.Errorf("missing -backends succeeded:\n%s", out)
	}
	out, err := cmdtest.RunErr(t, bin, "-backends", "http://127.0.0.1:1", "-addr", "not-an-address")
	if err == nil {
		t.Errorf("bad -addr succeeded:\n%s", out)
	}
}
