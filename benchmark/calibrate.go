package main

import (
	"math"
	"math/cmplx"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// its speed moves by half between identical runs, in phases of seconds to
// tens of minutes, wall time and CPU time alike. The timed metrics are
// therefore reported at the speed of a reference host: before and after
// every round of a window, and every set-up pass, the benchmark times a
// fixed kernel of its own, and scales what it measured in between by how
// much slower or faster than the reference that kernel ran.
//
// The kernel has the resource profile of the program's blind rotation at
// parameter set I, because a kernel without it does not follow the host
// (README, "Calibration"): one burst is 500 steps, each a forward and an
// inverse 512-point complex FFT on data that stays in the caches of the
// core, around a multiply-accumulate against 64 KB of a 32 MB table read
// once front to back, as a bootstrapping key is. Half its time is
// butterflies and half is the table.
//
// The kernel shares no code with the program and must never change: it
// defines the unit the timed metrics are expressed in.
const (
	calSteps  = 500 // steps per burst, set I's LWE dimension
	calPoints = 512 // complex points per polynomial, N/2 at N=1024
	calDigits = 4   // polynomials multiplied per step, (k+1)·lb
	calPolys  = 8   // table polynomials per step: calDigits rows of k+1
)

// calReference is the time of one burst on the reference host: this
// benchmark's 2-vCPU container in its ordinary state. A host exactly that
// fast reports its measurements as they are.
const calReference = 17 * time.Millisecond

// calibrator holds the kernel's table, twiddles, input and scratch.
type calibrator struct {
	table   []complex128
	twiddle []complex128
	input   []complex128
	work    []complex128
	prod    []complex128
	sum     float64 // keeps the compiler from dropping the kernel
}

func newCalibrator() *calibrator {
	c := &calibrator{
		table:   make([]complex128, calSteps*calPolys*calPoints),
		twiddle: make([]complex128, calPoints/2),
		input:   make([]complex128, calDigits*calPoints),
		work:    make([]complex128, calDigits*calPoints),
		prod:    make([]complex128, 2*calPoints),
	}
	for i := range c.table {
		c.table[i] = complex(float64(i%97)*1e-5, float64(i%89)*1e-5)
	}
	for i := range c.twiddle {
		c.twiddle[i] = cmplx.Rect(1, -2*math.Pi*float64(i)/calPoints)
	}
	for i := range c.input {
		c.input[i] = complex(float64(i%13)-6, float64(i%7)-3)
	}
	return c
}

// fft is an in-place radix-2 decimation-in-frequency transform without
// the final reordering, which the timing does not need.
func (c *calibrator) fft(a []complex128) {
	n := len(a)
	for half, stride := n/2, 1; half >= 1; half, stride = half/2, stride*2 {
		for lo := 0; lo < n; lo += 2 * half {
			for j := 0; j < half; j++ {
				x, y := a[lo+j], a[lo+j+half]
				a[lo+j] = x + y
				a[lo+j+half] = (x - y) * c.twiddle[j*stride]
			}
		}
	}
}

// burst runs the kernel once, on the calling goroutine, and returns the
// time it took.
func (c *calibrator) burst() time.Duration {
	t0 := time.Now()
	sum := 0.0
	for s := 0; s < calSteps; s++ {
		copy(c.work, c.input)
		c.fft(c.work[:calPoints])
		row := c.table[s*calPolys*calPoints : (s+1)*calPolys*calPoints]
		for out := 0; out < 2; out++ {
			acc := c.prod[out*calPoints : (out+1)*calPoints]
			clear(acc)
			for d := 0; d < calDigits; d++ {
				w := c.work[d*calPoints : (d+1)*calPoints]
				r := row[(2*d+out)*calPoints : (2*d+out+1)*calPoints]
				for j := range acc {
					acc[j] += w[j] * r[j]
				}
			}
		}
		c.fft(c.prod[:calPoints])
		sum += real(c.prod[s%calPoints]) + real(c.prod[calPoints+s%calPoints])
	}
	c.sum = sum
	return time.Since(t0)
}

// hostFactor is how much slower than the reference host the bursts on
// either side of a measurement say this one is: above 1 on a slower host.
// Measured times are divided by it.
func hostFactor(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(calReference)
}
