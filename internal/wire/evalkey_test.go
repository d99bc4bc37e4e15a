package wire

import (
	"bytes"
	"errors"
	"io"
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
