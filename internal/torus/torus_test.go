package torus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromFloatToFloatRoundtrip(t *testing.T) {
	cases := []float64{0, 0.25, 0.5, 0.75, 0.124999, 0.999999}
	for _, x := range cases {
		got := float64(FromFloat(x)) / (1 << 32) // the representative in [0,1)
		if math.Abs(got-x) > 1e-9 {
			t.Errorf("roundtrip(%v) = %v", x, got)
		}
	}
}

func TestFromFloatReducesModOne(t *testing.T) {
	if FromFloat(1.25) != FromFloat(0.25) {
		t.Errorf("1.25 and 0.25 should map to the same torus point")
	}
	if FromFloat(-0.75) != FromFloat(0.25) {
		t.Errorf("-0.75 and 0.25 should map to the same torus point")
	}
}

func TestEncodeDecodeMessage(t *testing.T) {
	for _, space := range []int{2, 4, 8, 16, 1024} {
		for m := 0; m < space; m++ {
			if got := DecodeMessage(EncodeMessage(m, space), space); got != m {
				t.Fatalf("space %d: decode(encode(%d)) = %d", space, m, got)
			}
		}
	}
}

func TestEncodeNegativeMessage(t *testing.T) {
	if EncodeMessage(-1, 8) != EncodeMessage(7, 8) {
		t.Errorf("-1 mod 8 should encode as 7")
	}
}

func TestDecodeToleratesNoise(t *testing.T) {
	space := 4
	rng := rand.New(rand.NewSource(1))
	for m := 0; m < space; m++ {
		enc := EncodeMessage(m, space)
		for i := 0; i < 100; i++ {
			noisy := Gaussian32(rng, enc, 1.0/64.0)
			if got := DecodeMessage(noisy, space); got != m {
				t.Fatalf("m=%d decoded as %d with small noise", m, got)
			}
		}
	}
}

func TestModSwitch(t *testing.T) {
	twoN := 2048
	// 1/4 of the torus should land at 1/4 of 2N.
	if got := ModSwitch(FromFloat(0.25), twoN); got != twoN/4 {
		t.Errorf("ModSwitch(1/4) = %d, want %d", got, twoN/4)
	}
	if got := ModSwitch(0, twoN); got != 0 {
		t.Errorf("ModSwitch(0) = %d, want 0", got)
	}
}

func TestModSwitchRangeProperty(t *testing.T) {
	f := func(v uint32) bool {
		got := ModSwitch(v, 2048)
		return got >= 0 && got < 2048
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModSwitchMonotoneOnGrid(t *testing.T) {
	// Exact multiples of 2^32/2N must map exactly.
	twoN := 2048
	step := uint64(1) << 32 / uint64(twoN)
	for i := 0; i < twoN; i++ {
		if got := ModSwitch(Torus32(uint64(i)*step), twoN); got != i {
			t.Fatalf("grid point %d mapped to %d", i, got)
		}
	}
}

func TestGaussianMeanAndSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sigma := 1.0 / 1024.0
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		e := ToSignedFloat(Gaussian32(rng, 0, sigma))
		sum += e
		sumSq += e * e
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq / float64(n))
	if math.Abs(mean) > 5*sigma/math.Sqrt(float64(n)) {
		t.Errorf("gaussian mean too far from 0: %v", mean)
	}
	if std < 0.9*sigma || std > 1.1*sigma {
		t.Errorf("gaussian std = %v, want ~%v", std, sigma)
	}
}

func TestDistanceWraparound(t *testing.T) {
	a := FromFloat(0.99)
	b := FromFloat(0.01)
	if d := Distance(a, b); math.Abs(d-0.02) > 1e-9 {
		t.Errorf("wraparound distance = %v, want 0.02", d)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		return math.Abs(Distance(a, b)-Distance(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBoundedProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		d := Distance(a, b)
		return d >= 0 && d <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulSubMatchesScalarLoop(t *testing.T) {
	// Every length around the eight-word vector (no vector, exact
	// multiples, each tail), the two keyswitch row lengths of the paper's
	// sets, digits at both ends of int32, and operands that start off a
	// 32-byte boundary — once as detected and once with the assembly
	// forced off, so the Go loop stays exercised on an AVX2 host.
	rng := rand.New(rand.NewSource(7))
	lengths := []int{500, 630}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	run := func(t *testing.T) {
		for _, n := range lengths {
			for _, d := range []int32{-2, -1, 1, math.MinInt32, math.MaxInt32} {
				for off := 0; off < 3; off++ {
					buf, src := make([]Torus32, n+off), make([]Torus32, n+off)
					for i := range buf {
						buf[i], src[i] = Uniform32(rng), Uniform32(rng)
					}
					want := append([]Torus32(nil), buf...)
					for i := off; i < len(want); i++ {
						want[i] -= Torus32(int32(src[i]) * d)
					}
					MulSub(buf[off:], src[off:], d)
					for i := range buf {
						if buf[i] != want[i] {
							t.Fatalf("n=%d d=%d offset %d: word %d is %#x, want %#x", n, d, off, i, buf[i], want[i])
						}
					}
				}
			}
		}
	}
	t.Run("detected", run)
	prev := SetAVX2(false)
	t.Run("go", run)
	SetAVX2(prev)

	defer func() {
		if recover() == nil {
			t.Error("MulSub accepted operands of different lengths")
		}
	}()
	MulSub(make([]Torus32, 8), make([]Torus32, 9), 1)
}
