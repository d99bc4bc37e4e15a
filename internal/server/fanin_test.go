package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/tfhe"
)

// BenchmarkSessionFanIn is the gate service under fan-in: eight callers
// send b.N requests each, 4-pair NANDs, to one set-I session at once, and
// every output is decrypted and checked. Each request is its own engine
// operation; the worker pool tiles the concurrent ones side by side.
// pbs/s is the session's throughput.
func BenchmarkSessionFanIn(b *testing.B) {
	const callers, pairs = 8, 4
	rng := rand.New(rand.NewSource(1))
	sk, ek := tfhe.GenerateKeys(rng, tfhe.ParamsI)
	srv := New(Config{})
	if err := srv.RegisterKey("alice", ek); err != nil {
		b.Fatal(err)
	}
	bits := make([][2][]bool, callers)
	cts := make([][2][]tfhe.LWECiphertext, callers)
	for c := range callers {
		for k := range 2 {
			bits[c][k] = make([]bool, pairs)
			cts[c][k] = make([]tfhe.LWECiphertext, pairs)
			for i := range pairs {
				bits[c][k][i] = rng.Intn(2) == 1
				cts[c][k][i] = sk.EncryptBool(rng, bits[c][k][i])
			}
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, y := bits[c][0], bits[c][1]
			for range b.N {
				out, err := srv.GateBatch("alice", engine.NAND, cts[c][0], cts[c][1])
				if err != nil {
					errs <- err
					return
				}
				for i, ct := range out {
					if sk.DecryptBool(ct) != !(x[i] && y[i]) {
						errs <- fmt.Errorf("caller %d: NAND %d decrypts wrong", c, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(callers*pairs*b.N)/b.Elapsed().Seconds(), "pbs/s")
}
