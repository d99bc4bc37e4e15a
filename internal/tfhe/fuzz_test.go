package tfhe

import (
	"testing"
)

// FuzzMultiLUTTestVector pins the packed test-vector builder's contract:
// for any (space, k) the parameter set admits it never panics, keeps the
// mask trivial, and lays tables out exactly as an independently-written
// reference (windows of ⌈N/(space·k)⌉ boundaries computed the opposite
// way around), with extraction offsets strictly increasing inside [0, N).
// Table entries come from the fuzzed bytes. Plain `go test` replays the
// f.Add seeds plus the committed corpus under testdata/fuzz/ in
// regression mode; the nightly workflow explores further.
func FuzzMultiLUTTestVector(f *testing.F) {
	f.Add(4, 1, []byte{0, 1, 2, 3})
	f.Add(4, 4, []byte{3, 1})
	f.Add(2, 128, []byte{})
	f.Add(8, 3, []byte{7, 6, 5, 4, 3, 2, 1, 0, 1})
	f.Add(0, 0, []byte{1})
	f.Add(-4, -1, []byte{9})
	f.Fuzz(func(t *testing.T, space, k int, data []byte) {
		p := ParamsTest
		if p.ValidateMultiLUT(space, k) != nil {
			return // the builder's callers validate first
		}
		tables := make([][]int, k)
		for i := range tables {
			tables[i] = make([]int, space)
			for m := range tables[i] {
				if len(data) > 0 {
					tables[i][m] = int(data[(i*space+m)%len(data)]) % space
				}
			}
		}
		ev := NewEvaluator(testEK)
		tv := ev.LUTTestVector(space, TableFuncs(tables))

		for i := 0; i < tv.K(); i++ {
			for j := 0; j < p.N; j++ {
				if tv.Polys[i].Coeffs[j] != 0 {
					t.Fatalf("space=%d k=%d: packed test vector mask poly %d is not trivial", space, k, i)
				}
			}
		}

		// Reference layout, built boundary-first: fine slot f covers
		// coefficients [⌈f·N/(s·k)⌉, ⌈(f+1)·N/(s·k)⌉).
		body := tv.Body()
		sk := space * k
		ceilDiv := func(a, b int) int { return (a + b - 1) / b }
		covered := 0
		for fine := 0; fine < sk; fine++ {
			lo, hi := ceilDiv(fine*p.N, sk), ceilDiv((fine+1)*p.N, sk)
			want := EncodePBSMessage(tables[fine%k][fine/k], space)
			for j := lo; j < hi; j++ {
				if body.Coeffs[j] != want {
					t.Fatalf("space=%d k=%d: coeff %d = %d, want %d (fine slot %d)", space, k, j, body.Coeffs[j], want, fine)
				}
			}
			covered += hi - lo
		}
		if covered != p.N {
			t.Fatalf("space=%d k=%d: fine slots cover %d of %d coefficients", space, k, covered, p.N)
		}

		offsets := p.MultiLUTOffsets(space, k)
		if len(offsets) != k {
			t.Fatalf("space=%d k=%d: %d offsets", space, k, len(offsets))
		}
		for i, off := range offsets {
			if off < 0 || off >= p.N {
				t.Fatalf("offset %d = %d outside [0,%d)", i, off, p.N)
			}
			if i > 0 && off <= offsets[i-1] {
				t.Fatalf("offsets not strictly increasing: %v", offsets)
			}
		}
	})
}
