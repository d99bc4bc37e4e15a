package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit, the shape the result line
// carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: whether every output was
// right, how many ops ran, and the metrics of the run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opFunc performs op i of one closed-loop client. The timed part ends when
// it returns; the verify closure it hands back decrypts the outputs and
// compares them with the plaintext truth after the latency stamp.
type opFunc func(client, i int) (verify func() error, err error)

// A window is cut into windowRounds rounds of equal length, with a
// calibration burst before the first and after each, so that no op is
// further than a round from a burst; it runs at least minRounds of them
// however slow the host is.
const (
	windowRounds = 15
	minRounds    = 3
)

// round is what the closed loop did between two calibration bursts.
type round struct {
	lats   []time.Duration // wall latency of each op that succeeded
	wall   time.Duration   // round opened → its last op verified
	cpu    time.Duration   // process user+sys CPU the round consumed
	factor float64         // host factor of the bursts on either side; 1 without calibration
}

// window is what one timed run of a closed loop produced.
type window struct {
	rounds    []round
	ops       int           // ops that succeeded
	wall      time.Duration // sum of the rounds' wall time
	cpu       time.Duration // sum of the rounds' CPU time
	allocated uint64        // heap bytes the process allocated in the rounds
	attempted int
	failed    int
	firstErr  error
}

// processCPU returns the user+sys CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated returns the bytes the process has allocated on the heap so
// far, freed or not.
func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runWindow drives `clients` closed-loop goroutines for d, in rounds: each
// client issues its next op only after the previous one completed and was
// verified, starts none once the round's share of d has elapsed, and does
// at least one op per round. Between rounds, with every client at rest,
// cal times a burst; a nil cal leaves the rounds uncalibrated. An op that
// errors or fails verification counts as failed.
func runWindow(clients int, d time.Duration, cal *calibrator, op opFunc) window {
	var (
		w      window
		next   = make([]int, clients) // each client's next op index
		before time.Duration
	)
	if cal != nil {
		before = cal.burst()
	}
	roundLen := d / windowRounds
	for start := time.Now(); time.Since(start) < d || len(w.rounds) < minRounds; {
		var (
			mu sync.Mutex
			wg sync.WaitGroup
			r  = round{factor: 1}
		)
		alloc0, cpu0, t0 := heapAllocated(), processCPU(), time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for first := true; first || time.Since(t0) < roundLen; first = false {
					opStart := time.Now()
					verify, err := op(c, next[c])
					lat := time.Since(opStart)
					if err == nil {
						err = verify()
					}
					mu.Lock()
					w.attempted++
					if err != nil {
						w.failed++
						if w.firstErr == nil {
							w.firstErr = fmt.Errorf("client %d op %d: %w", c, next[c], err)
						}
					} else {
						r.lats = append(r.lats, lat)
					}
					mu.Unlock()
					next[c]++
				}
			}(c)
		}
		wg.Wait()
		r.wall, r.cpu = time.Since(t0), processCPU()-cpu0
		w.allocated += heapAllocated() - alloc0
		if cal != nil {
			after := cal.burst()
			r.factor = hostFactor(before, after)
			before = after
		}
		w.ops += len(r.lats)
		w.wall += r.wall
		w.cpu += r.cpu
		w.rounds = append(w.rounds, r)
	}
	return w
}

// timed is a window's timed metrics at the reference host's speed. Each
// round's wall and CPU time are divided by the round's host factor; the
// rate is the window's ops over the sum of those wall times, the CPU time
// per op the sum of those CPU times over the ops, and the latency the
// median of every op's latency divided by its round's factor.
type timed struct {
	opsPerS  float64
	cpuPerOp float64 // ms
	p50      float64 // ms
	factor   float64 // median host factor of the rounds
}

func (w window) timed() (timed, error) {
	if w.ops == 0 {
		return timed{}, fmt.Errorf("the window completed no op (first error: %v)", w.firstErr)
	}
	var (
		wall, cpu     float64 // ms at reference speed
		lats, factors []float64
	)
	for _, r := range w.rounds {
		wall += ms(r.wall) / r.factor
		cpu += ms(r.cpu) / r.factor
		factors = append(factors, r.factor)
		for _, lat := range r.lats {
			lats = append(lats, ms(lat)/r.factor)
		}
	}
	_, p50, _ := quartiles(lats)
	_, factor, _ := quartiles(factors)
	return timed{opsPerS: float64(w.ops) / wall * 1000, cpuPerOp: cpu / float64(w.ops), p50: p50, factor: factor}, nil
}

// latencies returns the wall latency in ms of every op that succeeded, as
// measured, in ascending order.
func (w window) latencies() []float64 {
	var lats []float64
	for _, r := range w.rounds {
		for _, lat := range r.lats {
			lats = append(lats, ms(lat))
		}
	}
	slices.Sort(lats)
	return lats
}

// quantile returns the p-quantile of sorted values the way Python's
// statistics.quantiles does (its default, exclusive method), which is what
// the acceptance check of this benchmark computes spreads with: p = 0.25,
// 0.5 and 0.75 are statistics.quantiles(values, n=4).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n < 2 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	delta := pos - float64(j)
	return sorted[j-1]*(1-delta) + sorted[j]*delta
}

// quartiles returns the first quartile, median and third quartile of vals.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}
