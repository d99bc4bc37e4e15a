package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tfhe"
	"repro/internal/torus"
)

// roundTripSets are the parameter sets the bitwise round-trip properties
// are checked on: the fast test set and the full-scale set I baseline.
var roundTripSets = []string{"test", "I"}

// keyCache shares one generated key set per parameter set across the
// package's tests (set I keygen is ~200ms; no reason to pay it per test).
var keyCache sync.Map

type keyPair struct {
	sk tfhe.SecretKeys
	ek tfhe.EvaluationKeys
}

// testKeys returns deterministic keys for the named set, generated once.
func testKeys(t *testing.T, set string) (tfhe.SecretKeys, tfhe.EvaluationKeys) {
	t.Helper()
	if v, ok := keyCache.Load(set); ok {
		kp := v.(keyPair)
		return kp.sk, kp.ek
	}
	p, err := tfhe.ParamsByName(set)
	if err != nil {
		t.Fatalf("ParamsByName(%q): %v", set, err)
	}
	sk, ek := tfhe.GenerateKeys(rand.New(rand.NewSource(1)), p)
	keyCache.Store(set, keyPair{sk, ek})
	return sk, ek
}

func TestParamsRoundTrip(t *testing.T) {
	for _, p := range append(tfhe.StandardSets(), tfhe.ParamsTest) {
		data, err := MarshalParams(p)
		if err != nil {
			t.Fatalf("MarshalParams(%s): %v", p.Name, err)
		}
		if len(data) != ParamsSize(p) {
			t.Errorf("set %s: encoded %d bytes, ParamsSize says %d", p.Name, len(data), ParamsSize(p))
		}
		got, err := UnmarshalParams(data)
		if err != nil {
			t.Fatalf("UnmarshalParams(%s): %v", p.Name, err)
		}
		if got != p {
			t.Errorf("set %s: round trip changed params: got %+v", p.Name, got)
		}
	}
}

func TestLWERoundTrip(t *testing.T) {
	for _, set := range roundTripSets {
		sk, _ := testKeys(t, set)
		rng := rand.New(rand.NewSource(7))
		cts := []tfhe.LWECiphertext{
			sk.EncryptBool(rng, true),
			sk.EncryptBool(rng, false),
			sk.LWE.Encrypt(rng, torus.FromFloat(0.25), sk.Params.LWEStdDev),
			// Big-key dimension (post-extraction), exercising n = k·N.
			sk.BigLWE.Encrypt(rng, torus.FromFloat(0.125), sk.Params.GLWEStdDev),
			tfhe.NewLWECiphertext(0), // zero-dimension edge
		}
		for i, ct := range cts {
			data := MarshalLWE(ct)
			if len(data) != LWESize(ct.N()) {
				t.Errorf("set %s ct %d: encoded %d bytes, LWESize says %d", set, i, len(data), LWESize(ct.N()))
			}
			got, err := UnmarshalLWE(data)
			if err != nil {
				t.Fatalf("set %s ct %d: UnmarshalLWE: %v", set, i, err)
			}
			if !reflect.DeepEqual(got, ct) {
				t.Errorf("set %s ct %d: round trip not bitwise identical", set, i)
			}
		}
	}
}

func TestEvalKeyRoundTrip(t *testing.T) {
	for _, set := range roundTripSets {
		_, ek := testKeys(t, set)
		data, err := MarshalEvalKey(ek)
		if err != nil {
			t.Fatalf("set %s: MarshalEvalKey: %v", set, err)
		}
		if size, ok := EvalKeySize(ek.Params); !ok || int64(len(data)) != size {
			t.Errorf("set %s: encoded %d bytes, EvalKeySize says %d (ok=%v)", set, len(data), size, ok)
		}
		got, err := UnmarshalEvalKey(data)
		if err != nil {
			t.Fatalf("set %s: UnmarshalEvalKey: %v", set, err)
		}
		if !reflect.DeepEqual(got, ek) {
			t.Fatalf("set %s: eval key round trip not bitwise identical", set)
		}
	}
}

// TestEvalKeyDecodedIsFunctional runs a real gate through an evaluator
// built from a decoded key: the decoded key must not just compare equal,
// it must compute.
func TestEvalKeyDecodedIsFunctional(t *testing.T) {
	sk, ek := testKeys(t, "test")
	data, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalEvalKey(data)
	if err != nil {
		t.Fatal(err)
	}
	ev := tfhe.NewEvaluator(decoded)
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ a, b bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
		ca, cb := sk.EncryptBool(rng, tc.a), sk.EncryptBool(rng, tc.b)
		if got := sk.DecryptBool(ev.NAND(ca, cb)); got != !(tc.a && tc.b) {
			t.Errorf("NAND(%v,%v) decrypted to %v via decoded key", tc.a, tc.b, got)
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	sk, ek := testKeys(t, "test")
	rng := rand.New(rand.NewSource(11))
	lwe := MarshalLWE(sk.EncryptBool(rng, true))
	params, err := MarshalParams(ek.Params)
	if err != nil {
		t.Fatal(err)
	}
	evk, err := MarshalEvalKey(ek)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(data []byte, off int, b byte) []byte {
		c := bytes.Clone(data)
		c[off] = b
		return c
	}

	cases := []struct {
		name string
		fn   func([]byte) error
		data []byte
	}{
		{"lwe empty", unLWE, nil},
		{"lwe bad magic", unLWE, corrupt(lwe, 0, 'X')},
		{"lwe bad version", unLWE, corrupt(lwe, 4, 99)},
		{"lwe wrong kind", unLWE, corrupt(lwe, 5, byte(KindGLWE))},
		{"lwe reserved set", unLWE, corrupt(lwe, 6, 1)},
		{"lwe truncated", unLWE, lwe[:len(lwe)-1]},
		{"lwe trailing", unLWE, append(bytes.Clone(lwe), 0)},
		{"lwe huge dim", unLWE, corrupt(lwe, headerSize+3, 0xff)},
		{"params truncated", unParams, params[:len(params)-1]},
		{"params wrong kind", unParams, corrupt(params, 5, byte(KindLWE))},
		{"evalkey truncated header", unEK, evk[:headerSize-2]},
		{"evalkey truncated payload", unEK, evk[:len(evk)-4]},
		{"evalkey trailing", unEK, append(bytes.Clone(evk), 0)},
		{"evalkey wrong kind", unEK, corrupt(evk, 5, byte(KindLWE))},
	}

	// A parameter set that fails Validate inside an otherwise well-formed
	// params object (N not a power of two).
	badParams := ek.Params
	badParams.N = 300
	badData := appendParamsPayload(appendHeader(nil, KindParams), badParams)
	cases = append(cases, struct {
		name string
		fn   func([]byte) error
		data []byte
	}{"params invalid N", unParams, badData})

	// Non-finite noise stddev.
	nanParams := ek.Params
	nanParams.LWEStdDev = math.NaN()
	nanData := appendParamsPayload(appendHeader(nil, KindParams), nanParams)
	cases = append(cases, struct {
		name string
		fn   func([]byte) error
		data []byte
	}{"params NaN stddev", unParams, nanData})

	// A PBS gadget whose level·baseLog wraps int64 past Validate's ≤ 32:
	// the key's shape would be sized from the wrapped level. (The fields
	// go through uint32 so that the test compiles where int is 32 bits;
	// the wire bytes are the same there.)
	wrapParams := ek.Params
	level, baseLog := uint32(1<<32-1), uint32(1<<31+1)
	wrapParams.PBSLevel, wrapParams.PBSBaseLog = int(level), int(baseLog)
	wrapData := appendParamsPayload(appendHeader(nil, KindParams), wrapParams)
	cases = append(cases, struct {
		name string
		fn   func([]byte) error
		data []byte
	}{"params gadget product wraps", unParams, wrapData})

	// A non-finite Fourier coefficient inside the BSK: NaN has all-ones
	// exponent; overwrite the first coefficient's bytes.
	nanKey := bytes.Clone(evk)
	off := keyHeaderSize(ek.Params)
	for i := 0; i < 8; i++ {
		nanKey[off+i] = 0xff
	}
	cases = append(cases, struct {
		name string
		fn   func([]byte) error
		data []byte
	}{"evalkey NaN coefficient", unEK, nanKey})

	for _, tc := range cases {
		if err := tc.fn(tc.data); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
}

// Adapters so the malformed-input table can mix object kinds.
func unLWE(data []byte) error    { _, err := UnmarshalLWE(data); return err }
func unParams(data []byte) error { _, err := UnmarshalParams(data); return err }
func unEK(data []byte) error     { _, err := UnmarshalEvalKey(data); return err }

func TestDigestStability(t *testing.T) {
	sk, _ := testKeys(t, "test")
	rng := rand.New(rand.NewSource(21))
	ct := sk.EncryptBool(rng, true)
	d1, d2 := Digest(MarshalLWE(ct)), Digest(MarshalLWE(ct.Copy()))
	if d1 != d2 {
		t.Errorf("digest of identical ciphertexts differs: %s vs %s", d1, d2)
	}
	if len(d1) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(d1))
	}
	if DigestLWEs([]tfhe.LWECiphertext{ct, ct}) == DigestLWEs([]tfhe.LWECiphertext{ct}) {
		t.Error("batch digest ignores batch length")
	}
}

// Digest returns the hex SHA-256 of data — the fingerprint primitive of
// the golden known-answer vectors.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
