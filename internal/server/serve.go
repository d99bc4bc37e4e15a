package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// ServeHandler runs h on the listener until drain is closed or serving
// fails, then shuts down gracefully: quiesce runs first — it refuses new
// work and waits out what was admitted, so every accepted request gets
// its response — and only then are connections closed. quiesce runs
// exactly once on either exit path, so whatever it releases is released
// even when the listener dies under a server nobody asked to drain. A nil
// drain serves until the listener fails. ServeHandler returns the
// listener's error if serving failed first, otherwise quiesce's.
//
// The http.Server carries connection timeouts so unauthenticated peers
// cannot park half-read bodies or idle connections indefinitely; the read
// timeout is generous because evaluation-key uploads are legitimately
// large (set IV is ~1.09 GB, streamed). There is deliberately no write
// timeout: a response is only written after the FHE computation, which
// can itself take minutes on full-scale parameters.
func ServeHandler(l net.Listener, h http.Handler, drain <-chan struct{}, quiesce func() error) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	var serveErr error
	select {
	case serveErr = <-errc:
	case <-drain:
	}
	quiesceErr := quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	if serveErr != nil {
		return serveErr
	}
	<-errc // Serve has returned http.ErrServerClosed
	return quiesceErr
}

// Serve runs the service's HTTP API on the listener — the server half of
// the client/server split (clients keep secret keys; the service holds
// only evaluation keys) — until drain is closed, then shuts down
// gracefully: the service stops admitting work (healthz flips to
// draining, new requests get 503 shutting_down), every in-flight request
// — including open group-commit streams — runs to completion, the session
// store is flushed and closed, and open connections are torn down. It
// returns nil after a clean drain, or the listener's error if serving
// failed first; the store is closed then too. A nil drain serves until
// the listener fails.
func (s *Server) Serve(l net.Listener, drain <-chan struct{}) error {
	return ServeHandler(l, s.Handler(), drain, s.Drain)
}
