// Command strixrouter runs the gate service's routing tier: an HTTP
// front that consistent-hashes client sessions across a pool of
// strixserv backends and presents the same API as a single node.
//
// Placement follows eval-key gravity: evaluation keys are megabytes
// while ciphertext batches are kilobytes, so each client session pins to
// the node where its key registered (rendezvous hash on the client ID)
// and every subsequent envelope is forwarded there. Backends are probed
// every probe interval (/v1/healthz) with consecutive-failure ejection
// and consecutive-success re-admission; idempotent batch forwards are
// retried with jittered backoff; and a router-level inflight cap refuses
// excess load with the typed overloaded code before it reaches any node.
//
// Endpoints are strixserv's, routed: POST /v2/eval and the key upload
// POST /v1/sessions/{id} (piped through, never buffered) forward to the
// owning shard, DELETE /v1/sessions/{id} forwards and unpins, GET /v1/stats and /v1/sessions merge
// across the pool, and GET /v1/cluster reports the router's own view
// (backend health, pins). SIGINT/SIGTERM drain gracefully: new work is
// refused shutting_down while in-flight forwards finish.
//
// Usage:
//
//	strixrouter -backends http://10.0.0.7:8475,http://10.0.0.8:8475
//	strixrouter -addr 127.0.0.1:0 -backends ...   # ephemeral port (printed)
//	strixrouter -backends ... -max-inflight 512 -probe-interval 500ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", ":8474", "listen address (host:port; port 0 picks one)")
	backends := flag.String("backends", "", "comma-separated strixserv base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 0, "health probe period (0 = default 1s)")
	maxInflight := flag.Int("max-inflight", 0, "cluster-wide inflight cap (0 = default 256)")
	maxRetries := flag.Int("max-retries", 0, "forward retries for temporary failures (0 = default 3)")
	flag.Parse()

	var pool []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			pool = append(pool, b)
		}
	}
	rt, err := router.New(router.Config{
		Backends:      pool,
		ProbeInterval: *probeInterval,
		MaxInflight:   *maxInflight,
		MaxRetries:    *maxRetries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "strixrouter:", err)
		os.Exit(1)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strixrouter:", err)
		os.Exit(1)
	}
	fmt.Printf("strixrouter: listening on %s\n", l.Addr())
	fmt.Printf("strixrouter: routing %d backends\n", len(pool))

	// SIGINT/SIGTERM trigger a graceful drain: refuse new envelopes with
	// shutting_down, let in-flight forwards finish on their backends.
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Println("strixrouter: draining")
		close(drain)
	}()

	if err := rt.Serve(l, drain); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "strixrouter:", err)
		os.Exit(1)
	}
	fmt.Println("strixrouter: drained, exiting")
}
