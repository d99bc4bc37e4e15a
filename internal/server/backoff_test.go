package server

import (
	"net/http"
	"testing"
	"time"
)

// TestBackoffBounds pins the helper's totality: any base and attempt
// must yield a delay in (0, MaxBackoff] without panicking — the old
// per-caller implementations panicked on a sub-2ns base (empty jitter
// interval) and on attempt ≥ ~33 (shift overflow to negative).
func TestBackoffBounds(t *testing.T) {
	cases := []struct {
		name    string
		base    time.Duration
		attempt int
	}{
		{"tiny-base", 1, 0},
		{"zero-base", 0, 5},
		{"negative-base", -time.Second, 3},
		{"huge-attempt", 100 * time.Millisecond, 64},
		{"overflowing-attempt", time.Second, 1000},
		{"normal", 100 * time.Millisecond, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 32; i++ {
				d := Backoff(tc.base, tc.attempt)
				if d <= 0 {
					t.Fatalf("Backoff(%v, %d) = %v, want > 0", tc.base, tc.attempt, d)
				}
				if d > MaxBackoff {
					t.Fatalf("Backoff(%v, %d) = %v, want ≤ %v", tc.base, tc.attempt, d, MaxBackoff)
				}
			}
		})
	}
}

// TestBackoffJitterWindow pins the full-jitter shape: for a base and
// attempt that stay under the cap, every draw lands in [d/2, d) with
// d = base·2^attempt.
func TestBackoffJitterWindow(t *testing.T) {
	base := 100 * time.Millisecond
	d := 400 * time.Millisecond // base << 2
	for i := 0; i < 64; i++ {
		got := Backoff(base, 2)
		if got < d/2 || got >= d {
			t.Fatalf("Backoff(%v, 2) = %v, want in [%v, %v)", base, got, d/2, d)
		}
	}
}

// TestBackoffCaps pins saturation: once the doubled delay reaches
// MaxBackoff it stops growing, so later attempts draw from the same
// capped window instead of overflowing.
func TestBackoffCaps(t *testing.T) {
	for i := 0; i < 64; i++ {
		d := Backoff(time.Second, 10) // 1s·2^10 = ~17min, capped to 30s
		if d < MaxBackoff/2 || d >= MaxBackoff {
			t.Fatalf("capped Backoff = %v, want in [%v, %v)", d, MaxBackoff/2, MaxBackoff)
		}
	}
}

// TestRetryAfterOf covers the Retry-After parse: whole seconds floor the
// retry, anything else (absent, malformed, HTTP-date, non-positive)
// yields no floor, and hostile values clamp to MaxBackoff.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{" 2 ", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0},
		{"99999", MaxBackoff},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Retry-After", tc.header)
		}
		if got := ParseRetryAfter(h); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}
