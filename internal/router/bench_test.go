package router

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tfhe"
)

// BenchmarkRoutedGate4 is the service's per-op ledger row outside the
// benchmark: one set-I 4-pair NAND batch from server.Client through the
// router to the server, over loopback HTTP, with every output decrypted
// and checked. B/op and allocs/op count every layer the op crosses in this
// one process — client, router, server, engine — and are what the eval
// frame's encoding decides:
//
//	go test ./internal/router -run '^$' -bench RoutedGate4 -benchmem -benchtime 200x
func BenchmarkRoutedGate4(b *testing.B) {
	const pairs = 4
	rng := rand.New(rand.NewSource(1))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsI)
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rt, err := New(Config{Backends: []string{ts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	cl := server.Dial(rts.URL, "bench")
	if err := cl.RegisterKey(ek); err != nil {
		b.Fatal(err)
	}
	x, y := make([]bool, pairs), make([]bool, pairs)
	a, c := make([]tfhe.LWECiphertext, pairs), make([]tfhe.LWECiphertext, pairs)
	for i := range pairs {
		x[i], y[i] = rng.Intn(2) == 1, rng.Intn(2) == 1
		a[i], c[i] = sk.EncryptBool(rng, x[i]), sk.EncryptBool(rng, y[i])
	}
	check := func() {
		out, err := cl.GateBatch(engine.NAND, a, c)
		if err != nil {
			b.Fatal(err)
		}
		for i, ct := range out {
			if sk.DecryptBool(ct) != !(x[i] && y[i]) {
				b.Fatalf("NAND %d decrypts wrong", i)
			}
		}
	}
	check() // the connections and the session's engine are warm from here on

	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		check()
	}
}
