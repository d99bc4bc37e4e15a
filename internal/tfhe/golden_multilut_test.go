// The golden multi-value packing vectors live in an external test package
// so they can name the wire format's header constants (package wire
// imports tfhe; an in-package test would be an import cycle).
package tfhe_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tfhe"
	"repro/internal/wire"
)

// update regenerates testdata/golden_multilut.json from the current
// implementation:
//
//	go test ./internal/tfhe -run TestGoldenMultiLUT -update
//
// Only do this after convincing yourself a packing-layout change is
// intentional; the whole point of the fixture is that these digests do
// NOT move.
var update = flag.Bool("update", false, "rewrite the multi-value golden fixture")

// multiLUTVector is one known-answer tuple for the packed test-vector
// layout. Everything here is keyless and deterministic — the test vector
// is a trivial GLWE built from parameters and tables alone — so layout
// regressions are caught without any key generation. The digest is
// SHA-256 over the packed GLWE's glweBytes; the shift
// is the raw torus constant ShiftForLUT adds; the offsets are the
// sample-extraction coefficients.
type multiLUTVector struct {
	Set     string  `json:"set"`
	Space   int     `json:"space"`
	Tables  [][]int `json:"tables"`
	Shift   uint32  `json:"shift"`
	Offsets []int   `json:"offsets"`
	Digest  string  `json:"digest"`
}

// multiLUTGoldenFile is the fixture layout.
type multiLUTGoldenFile struct {
	Comment string           `json:"comment"`
	Vectors []multiLUTVector `json:"vectors"`
}

// goldenMultiLUTSeeds are the (set, space, tables) tuples the fixture
// pins: the k=1 degeneration, a k=4 pack on the test set, a pack where
// space·k does not divide N, and a full-scale set-I pack.
var goldenMultiLUTSeeds = []multiLUTVector{
	{Set: "test", Space: 4, Tables: [][]int{{1, 2, 3, 0}}},
	{Set: "test", Space: 4, Tables: [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 0, 1, 1}, {2, 3, 0, 1}}},
	{Set: "test", Space: 8, Tables: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 0, 1, 2, 3, 4, 5, 6}, {1, 3, 5, 7, 1, 3, 5, 7}}},
	{Set: "I", Space: 4, Tables: [][]int{{2, 0, 3, 1}, {1, 1, 2, 2}}},
}

// computeMultiLUTGolden fills in one vector's shift, offsets, and packed
// test-vector digest. No keys are generated: the evaluator is built over
// bare parameters, which is all test-vector packing needs.
func computeMultiLUTGolden(t *testing.T, v multiLUTVector) multiLUTVector {
	t.Helper()
	p, err := tfhe.ParamsByName(v.Set)
	if err != nil {
		t.Fatalf("set %s: %v", v.Set, err)
	}
	k := len(v.Tables)
	if err := p.ValidateMultiLUT(v.Space, k); err != nil {
		t.Fatalf("set %s space %d k %d: %v", v.Set, v.Space, k, err)
	}
	ev := tfhe.NewEvaluator(tfhe.EvaluationKeys{Params: p})
	tv := ev.LUTTestVector(v.Space, tfhe.TableFuncs(v.Tables))
	sum := sha256.Sum256(glweBytes(tv))
	v.Digest = hex.EncodeToString(sum[:])
	v.Offsets = p.MultiLUTOffsets(v.Space, k)

	zero := tfhe.NewLWECiphertext(p.SmallN)
	shifted := ev.ShiftForLUT(zero, v.Space, k)
	v.Shift = uint32(shifted.B)
	return v
}

// glweBytes is the byte string the fixture's digests are taken over: a
// wire object header (magic, version, the reserved GLWE kind), the mask
// length k and the degree N, then every coefficient, all little-endian.
func glweBytes(ct tfhe.GLWECiphertext) []byte {
	b := binary.LittleEndian.AppendUint32(nil, wire.Magic)
	b = append(b, wire.Version, byte(wire.KindGLWE), 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(ct.K()))
	b = binary.LittleEndian.AppendUint32(b, uint32(ct.PolyN()))
	for _, p := range ct.Polys {
		for _, c := range p.Coeffs {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
	}
	return b
}

// TestGoldenMultiLUT locks the multi-value packing layout against silent
// regressions: for each pinned (set, space, tables) tuple, the packed
// test vector's wire digest, the half-subslot shift constant, and the
// extraction offsets must reproduce bit-for-bit — all without keys. A
// mismatch means the packing or encoding changed behaviour; run with
// -update only if that was the point.
func TestGoldenMultiLUT(t *testing.T) {
	path := filepath.Join("testdata", "golden_multilut.json")

	if *update {
		out := multiLUTGoldenFile{
			Comment: "Keyless known-answer vectors for multi-value LUT packing. Regenerate with: go test ./internal/tfhe -run TestGoldenMultiLUT -update",
		}
		for _, seed := range goldenMultiLUTSeeds {
			out.Vectors = append(out.Vectors, computeMultiLUTGolden(t, seed))
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d vectors", path, len(out.Vectors))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (generate with -update): %v", err)
	}
	var fixture multiLUTGoldenFile
	if err := json.Unmarshal(data, &fixture); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}
	if len(fixture.Vectors) == 0 {
		t.Fatal("golden fixture has no vectors")
	}
	for _, want := range fixture.Vectors {
		got := computeMultiLUTGolden(t, want)
		if got.Digest != want.Digest {
			t.Errorf("set %s space %d k %d: packed test-vector digest drifted:\n  got  %s\n  want %s",
				want.Set, want.Space, len(want.Tables), got.Digest, want.Digest)
		}
		if got.Shift != want.Shift {
			t.Errorf("set %s space %d k %d: shift constant drifted: got %d, want %d",
				want.Set, want.Space, len(want.Tables), got.Shift, want.Shift)
		}
		if len(got.Offsets) != len(want.Offsets) {
			t.Errorf("set %s space %d k %d: offsets drifted: got %v, want %v",
				want.Set, want.Space, len(want.Tables), got.Offsets, want.Offsets)
			continue
		}
		for i := range want.Offsets {
			if got.Offsets[i] != want.Offsets[i] {
				t.Errorf("set %s space %d k %d: offsets drifted: got %v, want %v",
					want.Set, want.Space, len(want.Tables), got.Offsets, want.Offsets)
				break
			}
		}
	}
}
