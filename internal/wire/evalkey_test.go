package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/tfhe"
)

// goldenKey is the test-set evaluation key of seed 42 — the key of the
// first golden vector — and goldenKeyDigest the SHA-256 of its encoding as
// the one-shot MarshalEvalKey of format version 1 produced it, recorded
// before the codec became incremental. Stored keys and old clients depend
// on these bytes not moving.
const (
	goldenKeyBytes  = 1972285
	goldenKeyDigest = "9987a576c7c2e92ad7d3435df9e1bcb4b6c59c4dad309c686842be9b36325d93"
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
	hdr := headerSize + paramsPayloadSize(ek.Params)
	nan := bytes.Clone(data)
	for i := 0; i < 8; i++ {
		nan[hdr+int(bsk)/2+i] = 0xff // a NaN halfway through the BSK
	}
	size := int64(len(data))
	cases := []struct {
		name   string
		stream []byte
		size   int64
		want   string
	}{
		{"empty", nil, size, "truncated"},
		{"ends in header", data[:headerSize+3], size, "truncated"},
		{"ends in BSK", data[:hdr+int(bsk)/2], size, "truncated"},
		{"ends in KSK", data[:len(data)-6], size, "truncated"},
		{"trailing byte", append(bytes.Clone(data), 0), size, "trailing"},
		{"declared too small", data, size - 4, "want 1972285"},
		{"declared too large", data, size + 1, "want 1972285"},
		{"non-finite coefficient", nan, size, "non-finite"},
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
	}
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
// behind the delivered bytes: a whole key costs about one allocation of
// its decoded size, because no slab — the first GGSW included, which
// starts behind a header of a few dozen bytes — is regrown a few values
// at a time.
func TestDecodeEvalKeyAllocatesAboutItsSize(t *testing.T) {
	data, err := MarshalEvalKey(goldenKey())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := UnmarshalEvalKey(data); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(len(data))*5/4 {
		t.Errorf("decoding a %d-byte key allocated %d bytes, want at most 1.25× the key", len(data), grown)
	}
}

// TestGGSWSlabIsWireOrder checks that the BSK needs no reordering on the
// wire: GGSW i's slab is the run of N/2-value records from
// 1 + i·(k+1)·lb·(k+1) on, value for value.
func TestGGSWSlabIsWireOrder(t *testing.T) {
	ek := goldenKey()
	data, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	p := ek.Params
	m, perGGSW := p.N/2, (p.K+1)*p.PBSLevel*(p.K+1)
	hdr := headerSize + paramsPayloadSize(p)
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
// record is encoded in place or across reads, and every Read after it; a
// parameter set with non-finite noise is refused by MarshalParams and
// EncodeEvalKey alike.
func TestEncodersRefuseWhatDecodersRefuse(t *testing.T) {
	ek := goldenKey()
	ek.BSK[3][17] = complex(0, math.NaN())
	if _, err := MarshalEvalKey(ek); !errors.Is(err, errNonFinite) {
		t.Errorf("MarshalEvalKey of a key with a NaN: error %v, want %v", err, errNonFinite)
	}
	for _, bufSize := range []int{7, 32 << 10} {
		enc, _, err := EncodeEvalKey(ek)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyBuffer(io.Discard, enc, make([]byte, bufSize)); !errors.Is(err, errNonFinite) {
			t.Errorf("reading %d bytes at a time: error %v, want %v", bufSize, err, errNonFinite)
		}
		if n, err := enc.Read(make([]byte, 64)); n != 0 || !errors.Is(err, errNonFinite) {
			t.Errorf("Read after the failure: %d, %v; want 0, %v", n, err, errNonFinite)
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
