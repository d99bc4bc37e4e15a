// Command strixserv runs the networked FHE gate service: a session-sharded
// HTTP server that accepts wire-encoded evaluation keys and streams clients'
// gate/LUT batches through per-session streaming PBS engines. An engine is
// a handle on its session's keys: every session's operations run on the
// process's one pool of GOMAXPROCS workers, each running a tile of
// ciphertexts from modulus switch to keyswitch.
//
// The trust split is the classic FHE service model: clients keep their
// secret keys and upload only evaluation keys and ciphertexts; the server
// computes blindly. Endpoints (JSON frames with base64 ciphertext
// fields, except the key upload, whose body is the raw wire encoding,
// streamed and never buffered):
//
//	POST   /v2/eval                every evaluation: kind gate|lut|multilut|circuit|infer + payload + opts
//	POST   /v1/sessions/{id}       upload a client's evaluation keys (octet-stream, Content-Length required)
//	GET    /v1/stats               per-session metrics (requests, streams, op mix)
//	GET    /v1/healthz             readiness (503 once draining)
//	GET    /v1/sessions            live sessions across warm and durable tiers
//	DELETE /v1/sessions/{id}       evict a session everywhere
//
// With -data, registered evaluation keys are persisted to a crash-safe
// on-disk store (wire-codec key files plus a checksummed write-ahead
// log). A restarted server pointed at the same directory serves its old
// sessions again — bitwise-identical results, no key re-upload — and
// SIGINT/SIGTERM trigger a graceful drain: in-flight batches finish and
// the store is flushed before the process exits.
//
// Usage:
//
//	strixserv                        # listen on :8475, in-memory sessions
//	strixserv -addr 127.0.0.1:0      # ephemeral port (printed on stdout)
//	strixserv -data /var/lib/strix   # durable sessions, graceful drain
//	strixserv -max-sessions 128
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fft"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8475", "listen address (host:port; port 0 picks one)")
	dataDir := flag.String("data", "", "directory for durable session keys (empty = in-memory only)")
	maxSessions := flag.Int("max-sessions", 0, "LRU bound on cached client sessions (0 = default 64)")
	maxPending := flag.Int("max-pending", 0, "per-session backpressure bound (0 = default 64)")
	maxBatch := flag.Int("max-batch", 0, "max ciphertexts per request (0 = default 4096)")
	flag.Parse()

	srv, err := server.Open(server.Config{
		MaxSessions: *maxSessions,
		MaxPending:  *maxPending,
		MaxBatch:    *maxBatch,
		DataDir:     *dataDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "strixserv:", err)
		os.Exit(1)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strixserv:", err)
		os.Exit(1)
	}
	fmt.Printf("strixserv: listening on %s\n", l.Addr())
	fmt.Printf("strixserv: FFT kernels %s\n", fft.KernelSet())

	// SIGINT/SIGTERM trigger a graceful drain: stop admitting work, let
	// in-flight batches finish, flush and close the session store.
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Println("strixserv: draining")
		close(drain)
	}()

	if err := srv.Serve(l, drain); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "strixserv:", err)
		os.Exit(1)
	}
	fmt.Println("strixserv: drained, exiting")
}
