package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/router"
	"repro/internal/server"
)

// meterTransport is the benchmark's own http.RoundTripper. server.Client
// and router.Router both send through http.DefaultTransport, so replacing
// that one variable puts the benchmark on every hop without touching
// either package. It counts request and response body bytes per
// destination host and, when a tracer is set, records a span per request.
// Only POSTs are metered: every data-plane request is one, while the
// router's health probes are GETs from their own goroutine and belong to
// no op.
type meterTransport struct {
	base http.RoundTripper
	tr   atomic.Pointer[tracer]

	mu    sync.Mutex
	bytes map[string]int64  // host → body bytes, both directions
	names map[string]string // host → span name
}

var meter = func() *meterTransport {
	m := &meterTransport{base: http.DefaultTransport, bytes: map[string]int64{}, names: map[string]string{}}
	http.DefaultTransport = m
	return m
}()

func (m *meterTransport) add(host string, n int64) {
	m.mu.Lock()
	m.bytes[host] += n
	m.mu.Unlock()
}

// label names the spans of requests to host.
func (m *meterTransport) label(host, name string) {
	m.mu.Lock()
	m.names[host] = name
	m.mu.Unlock()
}

func (m *meterTransport) bytesTo(host string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes[host]
}

func (m *meterTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return m.base.RoundTrip(req)
	}
	host := req.URL.Host
	m.mu.Lock()
	name := m.names[host]
	m.mu.Unlock()
	done := m.tr.Load().start(name)
	if req.ContentLength > 0 {
		m.add(host, req.ContentLength)
	}
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m, host: host, done: done}
	return resp, nil
}

// meteredBody counts response bytes as they are read and closes the
// request's span when the body is closed, so the span covers the whole
// exchange and not only the wait for the response headers.
type meteredBody struct {
	io.ReadCloser
	m    *meterTransport
	host string
	once sync.Once
	done func()
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.add(b.host, int64(n))
	return n, err
}

func (b *meteredBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// stack is the full service path over real loopback sockets: a
// server.Server behind its HTTP handler, and a router.Router in front of
// it behind its own.
type stack struct {
	srv    *server.Server
	rt     *router.Router
	direct string // base URL of the server
	front  string // base URL of the router
	host   string // host:port of the router, the key of its byte count

	https  []*http.Server
	served sync.WaitGroup
	dir    string // DiskStore directory, "" when sessions are memory-only
}

// newStack starts a server with cfg and a router in front of it. With disk
// set the server persists sessions to a DiskStore in a fresh temporary
// directory, removed again by close.
func newStack(cfg server.Config, disk bool, tr *tracer) (_ *stack, err error) {
	st := &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if disk {
		if st.dir, err = os.MkdirTemp("", "strix-bench-*"); err != nil {
			return nil, err
		}
		cfg.DataDir = st.dir
		if st.srv, err = server.Open(cfg); err != nil {
			return nil, fmt.Errorf("open server: %w", err)
		}
	} else {
		st.srv = server.New(cfg)
	}
	directHost, err := st.serve(tracedHandler(tr, "server.Handler", st.srv.Handler()))
	if err != nil {
		return nil, err
	}
	st.direct = "http://" + directHost
	if st.rt, err = router.New(router.Config{Backends: []string{st.direct}}); err != nil {
		return nil, fmt.Errorf("new router: %w", err)
	}
	if st.host, err = st.serve(tracedHandler(tr, "router.Handler", st.rt.Handler())); err != nil {
		return nil, err
	}
	st.front = "http://" + st.host
	meter.label(directHost, "http.to_server")
	meter.label(st.host, "http.to_router")
	return st, nil
}

// serve starts an HTTP server for h on a free loopback port.
func (st *stack) serve(h http.Handler) (host string, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		if err := hs.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: http serve:", err)
		}
	}()
	return l.Addr().String(), nil
}

// wireBytes returns the HTTP body bytes clients have exchanged with the
// router so far.
func (st *stack) wireBytes() int64 { return meter.bytesTo(st.host) }

// close stops the listeners, the router's probe loop and the server, and
// removes the DiskStore directory.
func (st *stack) close() {
	for _, hs := range st.https {
		_ = hs.Close() // listeners and idle connections only; nothing is in flight
	}
	st.served.Wait()
	if c, ok := meter.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	if st.srv != nil {
		if err := st.srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: drain server:", err)
		}
	}
	if st.dir != "" {
		if err := os.RemoveAll(st.dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: remove store:", err)
		}
	}
}
