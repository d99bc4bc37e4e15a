package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/tfhe"
)

// goldenKey is the test-set evaluation key of seed 42 — the key of the
// first golden vector — and goldenKeyDigest the SHA-256 of its encoding in
// format version 2. Stored keys and clients depend on these bytes not
// moving. The version 1 encoding (1972285 bytes, SHA-256 9987a576…) was
// these bytes with version byte 1 and without the 3-byte pad.
const (
	goldenKeyBytes  = 1972288
	goldenKeyDigest = "d19eb7b2f15a3569b5bbe14f245ee64bad7971b45b7b2626f7e1651c17ded82e"
)

func goldenKey() tfhe.EvaluationKeys {
	_, ek := tfhe.GenerateKeys(rand.New(rand.NewSource(42)), tfhe.ParamsTest)
	return ek
}

// TestEncodeEvalKeyGoldenBytes pins the encoder's output, however it is
// read: whole, and through buffers that split every record.
func TestEncodeEvalKeyGoldenBytes(t *testing.T) {
	ek := goldenKey()
	whole, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != goldenKeyBytes || Digest(whole) != goldenKeyDigest {
		t.Fatalf("encoding is %d bytes, digest %s; want %d, %s", len(whole), Digest(whole), goldenKeyBytes, goldenKeyDigest)
	}
	for _, bufSize := range []int{1, 7, 4096, 32 << 10} {
		enc, size, err := EncodeEvalKey(ek)
		if err != nil {
			t.Fatal(err)
		}
		if size != goldenKeyBytes {
			t.Errorf("EncodeEvalKey announces %d bytes, want %d", size, goldenKeyBytes)
		}
		var got bytes.Buffer
		if _, err := io.CopyBuffer(struct{ io.Writer }{&got}, enc, make([]byte, bufSize)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), whole) {
			t.Errorf("encoding read %d bytes at a time differs from MarshalEvalKey", bufSize)
		}
	}
}

// plainWriter discards what it is given and is nothing but an io.Writer:
// an io.CopyBuffer into it reads through the buffer it is handed, where
// io.Discard's ReadFrom would pick its own.
type plainWriter struct{}

func (plainWriter) Write(p []byte) (int, error) { return len(p), nil }

// setIKey is a set-I evaluation key, 49 MB encoded.
func setIKey() tfhe.EvaluationKeys {
	_, ek := tfhe.GenerateKeys(rand.New(rand.NewSource(7)), tfhe.ParamsI)
	return ek
}

// TestEncodeEvalKeyReadsWithoutGarbage reads a set-I key through the
// buffer sizes transports copy with. Its 8 KB BSK records straddle every
// such buffer, yet after the first Read the encoder allocates at most one
// record's spill buffer, however many records it spills.
func TestEncodeEvalKeyReadsWithoutGarbage(t *testing.T) {
	ek := setIKey()
	record := 16 * (ek.Params.N / 2)
	for _, bufSize := range []int{4 << 10, 8 << 10, 32 << 10} {
		enc, size, err := EncodeEvalKey(ek)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, bufSize)
		first, err := enc.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rest, err := io.CopyBuffer(plainWriter{}, enc, buf)
		runtime.ReadMemStats(&after)
		if err != nil || int64(first)+rest != size {
			t.Fatalf("%d-byte reads: %d bytes, error %v; want %d bytes", bufSize, int64(first)+rest, err, size)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(record) {
			t.Errorf("%d-byte reads of a %d-byte key allocated %d bytes after the first Read, want at most one %d-byte record",
				bufSize, size, grown, record)
		}
	}
}

// BenchmarkEvalKeyCodec is the key codec at set I: encode, read through a
// 32 KB buffer as a transport copies it; view in place; and decode from a
// stream, read into memory and viewed.
func BenchmarkEvalKeyCodec(b *testing.B) {
	ek := setIKey()
	data, err := MarshalEvalKey(ek)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 32<<10)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, _, err := EncodeEvalKey(ek)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.CopyBuffer(plainWriter{}, enc, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ViewEvalKey(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeEvalKey(bytes.NewReader(data), int64(len(data))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSwapWords runs the big-endian host's one extra step on any host:
// swapping the words of a big-endian encoding gives the little-endian one,
// at both word sizes of the key. Then the codec runs as if the host were
// big-endian: its encoding is the real one with every BSK and KSK word
// swapped, and the view of it is a swapped copy, bitwise the key.
func TestSwapWords(t *testing.T) {
	vals := []uint64{0x0102030405060708, 0x7ff0000000000001, 0x8000000000000000, 0xfedcba9876543210}
	var be8, le8, be4, le4 []byte
	for _, v := range vals {
		be8, le8 = binary.BigEndian.AppendUint64(be8, v), binary.LittleEndian.AppendUint64(le8, v)
		be4, le4 = binary.BigEndian.AppendUint32(be4, uint32(v)), binary.LittleEndian.AppendUint32(le4, uint32(v))
	}
	swapWords(be8, 8)
	swapWords(be4, 4)
	if !bytes.Equal(be8, le8) || !bytes.Equal(be4, le4) {
		t.Fatalf("swapWords: 8-byte words % x, want % x; 4-byte words % x, want % x", be8, le8, be4, le4)
	}

	ek := goldenKey()
	data, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	hdr := keyHeaderSize(ek.Params)
	bsk, _ := bskBytes(ek.Params)
	want := bytes.Clone(data)
	swapWords(want[hdr:hdr+int(bsk)], 8)
	swapWords(want[hdr+int(bsk):], 4)

	bigEndian = !bigEndian
	defer func() { bigEndian = !bigEndian }()
	swapped, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(swapped, want) {
		t.Error("the encoding with words swapped is not the encoding with each BSK and KSK word reversed")
	}
	got, err := ViewEvalKey(swapped)
	if err != nil || !reflect.DeepEqual(got, ek) {
		t.Fatalf("viewing with words swapped: error %v, same key %v", err, reflect.DeepEqual(got, ek))
	}
	if unsafe.Pointer(&got.BSK[0][0]) == unsafe.Pointer(&swapped[hdr]) {
		t.Error("viewing with words swapped aliased the encoding instead of swapping a copy")
	}
}

// TestDecodeEvalKeyAnyChunking feeds the decoder through readers that
// return one byte, half of what is asked, and data together with io.EOF:
// the key must be bitwise the one UnmarshalEvalKey decodes. A reader that
// fails must surface its own error, not a truncation.
func TestDecodeEvalKeyAnyChunking(t *testing.T) {
	data, err := MarshalEvalKey(goldenKey())
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnmarshalEvalKey(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
	} {
		got, err := DecodeEvalKey(wrap(bytes.NewReader(data)), int64(len(data)))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded key differs from UnmarshalEvalKey", name)
		}
	}
	got, err := DecodeEvalKey(iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(data))), int64(len(data)))
	if !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("TimeoutReader: error %v, want one wrapping iotest.ErrTimeout", err)
	}
	if got.BSK != nil || got.KSK != nil {
		t.Error("TimeoutReader: a failed decode returned key material")
	}
}

// TestDecodeEvalKeyRejects covers what only a stream can get wrong: it
// ends inside the header, the BSK or the KSK; it runs on past the object;
// or it is declared a size its own parameter header contradicts.
func TestDecodeEvalKeyRejects(t *testing.T) {
	ek := goldenKey()
	data, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	bsk, _ := bskBytes(ek.Params)
	hdr := keyHeaderSize(ek.Params)
	nan := bytes.Clone(data)
	for i := 0; i < 8; i++ {
		nan[hdr+int(bsk)/2+i] = 0xff // a NaN halfway through the BSK
	}
	v1, pad := bytes.Clone(data), bytes.Clone(data)
	v1[4] = 1
	pad[hdr-1] = 1
	size := int64(len(data))
	type rejectCase struct {
		name   string
		stream []byte
		size   int64
		want   string
	}
	cases := []rejectCase{
		{"empty", nil, size, "truncated"},
		{"ends in header", data[:headerSize+3], size, "truncated"},
		{"ends in BSK", data[:hdr+int(bsk)/2], size, "truncated"},
		{"ends in KSK", data[:len(data)-6], size, "truncated"},
		{"trailing byte", append(bytes.Clone(data), 0), size, "trailing"},
		{"declared too small", data, size - 4, fmt.Sprintf("want %d", goldenKeyBytes)},
		{"declared too large", data, size + 1, fmt.Sprintf("want %d", goldenKeyBytes)},
		{"version 1", v1, size, "unsupported format version 1, want 2"},
		{"nonzero pad", pad, size, "pad"},
		{"ends in pad", data[:hdr-1], size, "truncated"},
		{"non-finite coefficient", nan, size, "non-finite"},
	}
	for _, at := range bskEdges(ek.Params) {
		for _, bits := range nonFiniteEdges {
			stream := bytes.Clone(data)
			binary.LittleEndian.PutUint64(stream[hdr+at.off(ek.Params):], bits)
			cases = append(cases, rejectCase{fmt.Sprintf("%#x at %s", bits, at.name), stream, size, "non-finite"})
		}
	}
	for _, tc := range cases {
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"whole": func(r io.Reader) io.Reader { return r },
			"half":  iotest.HalfReader,
		} {
			_, err := DecodeEvalKey(wrap(bytes.NewReader(tc.stream)), tc.size)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (%s reads): error %v, want one containing %q", tc.name, name, err, tc.want)
			}
		}
		if _, err := ViewEvalKey(tc.stream); err == nil && tc.size == int64(len(tc.stream)) {
			t.Errorf("%s: ViewEvalKey accepted it", tc.name)
		}
	}

	// The finite values next to the refused bit patterns pass, bit for bit.
	for _, at := range bskEdges(ek.Params) {
		for _, bits := range finiteEdges {
			stream := bytes.Clone(data)
			binary.LittleEndian.PutUint64(stream[hdr+at.off(ek.Params):], bits)
			got, err := UnmarshalEvalKey(stream)
			if err != nil {
				t.Errorf("%#x at %s: %v", bits, at.name, err)
				continue
			}
			if v := *at.bits(got); v != bits {
				t.Errorf("%#x at %s decodes to %#x", bits, at.name, v)
			}
		}
	}
}

// The float64 bit patterns at the edge of the finiteness check: +Inf, −Inf
// and the NaN nearest to +Inf are refused; the largest finite double and
// −0 are not.
var (
	nonFiniteEdges = []uint64{0x7ff0000000000000, 0xfff0000000000000, 0x7ff0000000000001}
	finiteEdges    = []uint64{0x7fefffffffffffff, 0x8000000000000000}
)

// bskEdge is a float64 of the BSK: word of GGSW ggsw, the real and
// imaginary parts of its values in turn.
type bskEdge struct {
	name       string
	ggsw, word int
}

// off is the edge's byte offset in the encoded BSK.
func (e bskEdge) off(p tfhe.Params) int { return 16*e.ggsw*p.GGSWValues() + 8*e.word }

// bits points at the edge's bits in ek.
func (e bskEdge) bits(ek tfhe.EvaluationKeys) *uint64 { return &floatBits(ek.BSK[e.ggsw])[e.word] }

// bskEdges are the two places the finiteness check is tested at: the real
// part of the first value of GGSW 1, which begins a chunk of the decoder's
// reads and a record of the encoder's, and the imaginary part of the last
// value of the BSK, the last float64 before the KSK.
func bskEdges(p tfhe.Params) []bskEdge {
	return []bskEdge{{"chunk start", 1, 0}, {"last BSK value", p.SmallN - 1, 2*p.GGSWValues() - 1}}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestDecodeEvalKeySizeCheckedBeforeStorage pins the order of the checks
// on hostile input: a declared size that disagrees with the parameter
// header is refused from the header alone — nothing past the first chunk
// is read — and a header promising a gigabyte key (set IV) followed by
// nothing costs no key-sized allocation.
func TestDecodeEvalKeySizeCheckedBeforeStorage(t *testing.T) {
	data, err := MarshalEvalKey(goldenKey())
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReader{r: bytes.NewReader(data)}
	if _, err := DecodeEvalKey(src, int64(len(data))+16); err == nil {
		t.Fatal("declared size disagreeing with the parameter header accepted")
	}
	if src.n > keyChunk {
		t.Errorf("decoder read %d bytes before refusing the size, want at most one %d-byte chunk", src.n, keyChunk)
	}

	header := appendParamsPayload(appendHeader(nil, KindEvalKey), tfhe.ParamsIV)
	size, ok := EvalKeySize(tfhe.ParamsIV)
	if !ok || size < 1<<30 {
		t.Fatalf("set IV key size = %d, %v; the test needs a gigabyte key", size, ok)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeEvalKey(bytes.NewReader(header), size)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("header-only set IV stream: error %v, want truncated input", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Errorf("header-only stream with a %d-byte declared size allocated %d bytes", size, grown)
	}
}

// TestDecodeEvalKeyHeaderOnlyMaxN pins where the decoder's allocation
// stops at the largest polynomial degree it accepts: a header promising an
// N = 2^20 key (one GGSW of 32 MB) followed by nothing buys storage only
// behind the header bytes delivered, not a polynomial (8 MB) ahead of them.
func TestDecodeEvalKeyHeaderOnlyMaxN(t *testing.T) {
	p := tfhe.Params{Name: "maxN", N: MaxPolyDegree, K: 1, SmallN: 1, PBSLevel: 1, PBSBaseLog: 8,
		KSLevel: 1, KSBaseLog: 8, LWEStdDev: 1e-9, GLWEStdDev: 1e-9}
	size, ok := EvalKeySize(p)
	if !ok {
		t.Fatalf("EvalKeySize refuses the maximum-N set %+v", p)
	}
	header := appendParamsPayload(appendHeader(nil, KindEvalKey), p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeEvalKey(bytes.NewReader(header), size)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("header-only N = 2^20 stream: error %v, want truncated input", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("header-only N = 2^20 stream of %d bytes allocated %d bytes, want < 1 MB", len(header), grown)
	}
}

// TestDecodeEvalKeyAllocatesAboutItsSize pins the other side of growing
// behind the delivered bytes: a whole key read from a stream costs about
// one allocation of its size, because the buffer is not regrown as the
// bytes arrive — only the first eighth of them gathers in pieces first.
func TestDecodeEvalKeyAllocatesAboutItsSize(t *testing.T) {
	data, err := MarshalEvalKey(goldenKey())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeEvalKey(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(len(data))*5/4 {
		t.Errorf("decoding a %d-byte key allocated %d bytes, want at most 1.25× the key", len(data), grown)
	}
}

// TestGGSWSlabIsWireOrder checks that the BSK needs no reordering on the
// wire: GGSW i's slab is the run of N/2-value records from
// 1 + i·(k+1)·lb·(k+1) on, value for value; and that a viewed key uses
// the bytes in place: each GGSW slab and the KSK start at their offsets
// in the encoding, the GGSWs 64-byte aligned.
func TestGGSWSlabIsWireOrder(t *testing.T) {
	ek := goldenKey()
	data, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	p := ek.Params
	view, err := ViewEvalKey(data)
	if err != nil {
		t.Fatal(err)
	}
	gv := p.GGSWValues()
	for i, g := range view.BSK {
		off := keyHeaderSize(p) + 16*i*gv
		if off%keyAlign != 0 || unsafe.Pointer(&g[0]) != unsafe.Pointer(&data[off]) {
			t.Fatalf("viewed GGSW %d starts at %p, want the encoding's byte %d (64-aligned: %v) at %p", i, &g[0], off, off%keyAlign == 0, &data[off])
		}
	}
	if off := keyHeaderSize(p) + 16*p.SmallN*gv; off%16 != 0 || unsafe.Pointer(&view.KSK[0]) != unsafe.Pointer(&data[off]) {
		t.Errorf("viewed KSK starts at %p, want the encoding's byte %d at %p", &view.KSK[0], off, &data[off])
	}
	m, perGGSW := p.N/2, (p.K+1)*p.PBSLevel*(p.K+1)
	hdr := keyHeaderSize(p)
	for i, g := range ek.BSK {
		for j, v := range g {
			rec, at := 1+i*perGGSW+j/m, j%m
			raw := data[hdr+16*((rec-1)*m+at):]
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
			if math.Float64bits(re) != math.Float64bits(real(v)) || math.Float64bits(im) != math.Float64bits(imag(v)) {
				t.Fatalf("BSK[%d] value %d is %v, wire record %d value %d is %v", i, j, v, rec, at, complex(re, im))
			}
		}
	}
}

// TestEncodersRefuseWhatDecodersRefuse: a key the decoder would reject is
// not encoded. A NaN in the BSK fails the Read that reaches it, whether the
// record is encoded in place or across reads, and every Read after it, and
// the view refuses the same value written into a valid encoding; the
// finite values beside the refused ones encode and view bit for bit. A
// parameter set with non-finite noise is refused by MarshalParams and
// EncodeEvalKey alike.
func TestEncodersRefuseWhatDecodersRefuse(t *testing.T) {
	ek := goldenKey()
	ek.BSK[3][17] = complex(0, math.NaN())
	refuse := func(ek tfhe.EvaluationKeys, what string) {
		t.Helper()
		if _, err := MarshalEvalKey(ek); !errors.Is(err, errNonFinite) {
			t.Errorf("MarshalEvalKey of a key with %s: error %v, want %v", what, err, errNonFinite)
		}
		for _, bufSize := range []int{7, 32 << 10} {
			enc, _, err := EncodeEvalKey(ek)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.CopyBuffer(plainWriter{}, enc, make([]byte, bufSize)); !errors.Is(err, errNonFinite) {
				t.Errorf("%s, reading %d bytes at a time: error %v, want %v", what, bufSize, err, errNonFinite)
			}
			if n, err := enc.Read(make([]byte, 64)); n != 0 || !errors.Is(err, errNonFinite) {
				t.Errorf("%s, Read after the failure: %d, %v; want 0, %v", what, n, err, errNonFinite)
			}
		}
	}
	refuse(ek, "a NaN")
	valid, err := MarshalEvalKey(goldenKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range bskEdges(ek.Params) {
		for _, bits := range nonFiniteEdges {
			edge := goldenKey()
			*at.bits(edge) = bits
			refuse(edge, fmt.Sprintf("%#x at %s", bits, at.name))
			data := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(data[keyHeaderSize(ek.Params)+at.off(ek.Params):], bits)
			if _, err := ViewEvalKey(data); !errors.Is(err, errNonFinite) {
				t.Errorf("ViewEvalKey of an encoding with %#x at %s: error %v, want %v", bits, at.name, err, errNonFinite)
			}
		}
		for _, bits := range finiteEdges {
			edge := goldenKey()
			*at.bits(edge) = bits
			data, err := MarshalEvalKey(edge)
			if err != nil {
				t.Errorf("MarshalEvalKey of a key with %#x at %s: %v", bits, at.name, err)
				continue
			}
			got, err := ViewEvalKey(data)
			if err != nil {
				t.Errorf("viewing a key with %#x at %s: %v", bits, at.name, err)
			} else if v := *at.bits(got); v != bits {
				t.Errorf("%#x at %s round-trips to %#x", bits, at.name, v)
			}
		}
	}

	p := tfhe.ParamsTest
	p.LWEStdDev = math.NaN()
	if _, err := MarshalParams(p); err == nil {
		t.Error("MarshalParams accepted a NaN stddev")
	}
	p.LWEStdDev, p.GLWEStdDev = 1e-9, math.Inf(1)
	if _, err := MarshalParams(p); err == nil {
		t.Error("MarshalParams accepted an infinite stddev")
	}
	nanKey := goldenKey()
	nanKey.Params.GLWEStdDev = math.NaN()
	if _, _, err := EncodeEvalKey(nanKey); err == nil {
		t.Error("EncodeEvalKey accepted a NaN stddev")
	}
}
