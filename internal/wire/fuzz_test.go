package wire

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/tfhe"
)

// The fuzz harnesses pin the decoder's two contracts: it never panics on
// malformed bytes (the server feeds it attacker-controlled input), and any
// input it accepts is canonical — re-marshaling the decoded object
// reproduces the input bit-for-bit. Plain `go test` runs the f.Add seeds
// plus the committed corpus under testdata/fuzz/ in regression mode; CI
// relies on that, and `go test -fuzz FuzzUnmarshalLWE ./internal/wire`
// explores further.

// fuzzParams is a deliberately tiny (completely insecure) parameter set so
// the evaluation-key seed corpus stays a few kilobytes.
var fuzzParams = tfhe.Params{
	Name: "fuzz", N: 8, K: 1, SmallN: 2, PBSLevel: 2, Security: 0,
	PBSBaseLog: 8, KSLevel: 2, KSBaseLog: 4,
	LWEStdDev: 1e-9, GLWEStdDev: 1e-9,
}

// fuzzSeedLWE returns a valid small encoded LWE ciphertext.
func fuzzSeedLWE() []byte {
	rng := rand.New(rand.NewSource(1))
	k := tfhe.NewLWEKey(rng, 8)
	return MarshalLWE(k.Encrypt(rng, 1<<29, 1e-9))
}

// fuzzSeedParams returns a valid encoded parameter set.
func fuzzSeedParams() []byte {
	data, err := MarshalParams(tfhe.ParamsTest)
	if err != nil {
		panic(err)
	}
	return data
}

// fuzzSeedEvalKey returns a valid encoded evaluation key for fuzzParams.
func fuzzSeedEvalKey() []byte {
	_, ek := tfhe.GenerateKeys(rand.New(rand.NewSource(3)), fuzzParams)
	data, err := MarshalEvalKey(ek)
	if err != nil {
		panic(err)
	}
	return data
}

// addMutations seeds f with valid bytes plus cheap structural mutations
// (truncations, corrupt magic/version/kind, trailing byte).
func addMutations(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerSize/2])
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))
	for _, off := range []int{0, 4, 5, 6} {
		c := bytes.Clone(valid)
		c[off] ^= 0xff
		f.Add(c)
	}
}

func FuzzUnmarshalLWE(f *testing.F) {
	addMutations(f, fuzzSeedLWE())
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := UnmarshalLWE(data)
		if err != nil {
			return
		}
		if again := MarshalLWE(ct); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical LWE input: %d bytes in, %d bytes re-marshaled", len(data), len(again))
		}
	})
}

func FuzzUnmarshalParams(f *testing.F) {
	addMutations(f, fuzzSeedParams())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalParams(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid params: %v", err)
		}
		again, err := MarshalParams(p)
		if err != nil {
			t.Fatalf("decoded params fail to re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted non-canonical params input")
		}
	})
}

// FuzzUnmarshalEvalKey views every input in place (ViewEvalKey) and also
// receives it as a stream (receiveEvalKey, the server's composition of
// ReadEvalKeyHeader, ReadSized and ViewEvalKey) behind a reader that
// splits it into short reads — the shape a network body has — requiring
// the same verdict and the same key. The committed corpus holds, beside the valid key, the
// layout's own refusals: a version 1 key, a nonzero pad byte, and a key
// that ends inside its pad.
func FuzzUnmarshalEvalKey(f *testing.F) {
	addMutations(f, fuzzSeedEvalKey())
	f.Fuzz(func(t *testing.T, data []byte) {
		ek, err := ViewEvalKey(data)
		chunked, cerr := receiveEvalKey(iotest.HalfReader(bytes.NewReader(data)), int64(len(data)))
		if (err == nil) != (cerr == nil) {
			t.Fatalf("view: %v; short reads: %v", err, cerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(ek, chunked) {
			t.Fatal("short reads decoded a different key")
		}
		if err := ek.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid eval key: %v", err)
		}
		again, err := MarshalEvalKey(ek)
		if err != nil {
			t.Fatalf("decoded eval key fails to re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted non-canonical eval key input")
		}
	})
}

// TestEvalKeyCorpusRefusals pins the verdict on the committed corpus
// seeds of the key layout: the fuzz harness only requires that what is
// accepted is canonical, so the refusals are asserted here.
func TestEvalKeyCorpusRefusals(t *testing.T) {
	for name, want := range map[string]string{
		"v1-key":           "unsupported format version 1",
		"nonzero-pad":      "pad",
		"truncated-in-pad": "truncated",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnmarshalEvalKey", name))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ViewEvalKey([]byte(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ViewEvalKey error %v, want one containing %q", name, err, want)
		}
	}
}
