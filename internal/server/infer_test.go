package server

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/tfhe"
	"repro/internal/workload"
)

// encryptFeatures encrypts a batch of cleartext feature vectors
// vector-major in the inference encoding.
func encryptFeatures(sk tfhe.SecretKeys, seed int64, vecs [][]int) []tfhe.LWECiphertext {
	rng := rand.New(rand.NewSource(seed))
	var cts []tfhe.LWECiphertext
	for _, v := range vecs {
		for _, m := range v {
			cts = append(cts, sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(m, workload.InferSpace), tfhe.ParamsTest.LWEStdDev))
		}
	}
	return cts
}

// TestInferBatchDecodesToReference runs a two-vector inference through
// the full service path — HTTP client, v2 infer envelope, scheduled
// execution on the session — plain and optimized, and checks the encrypted scores
// decode to the quantized cleartext reference.
func TestInferBatchDecodesToReference(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, "infer-test")
	if err := cl.RegisterKey(ek); err != nil {
		t.Fatal(err)
	}

	vecs := [][]int{{0, 1, 2, 3}, {3, 0, 3, 1}}
	cts := encryptFeatures(sk, 21, vecs)
	for _, opts := range []EvalOpts{{}, {Optimize: true}} {
		got, err := cl.Infer(cts, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(got) != len(vecs) {
			t.Fatalf("opts %+v: %d score groups, want %d", opts, len(got), len(vecs))
		}
		for i, v := range vecs {
			want, err := workload.InferReference(v)
			if err != nil {
				t.Fatal(err)
			}
			for k, wantScore := range want {
				dec := tfhe.DecodePBSMessage(sk.LWE.Phase(got[i][k]), workload.InferSpace)
				if dec != wantScore {
					t.Errorf("opts %+v vector %d score %d decodes to %d, want %d", opts, i, k, dec, wantScore)
				}
			}
		}
	}
}

// TestInferBatchValidation pins the request bounds of the inference
// path: ragged or empty feature batches, oversized batches, and wrong
// ciphertext dimensions are refused before execution.
func TestInferBatchValidation(t *testing.T) {
	sk, ek := testKeys(t, 1)
	srv := New(Config{MaxBatch: workload.InferFeatures})
	if err := srv.RegisterKey("v", ek); err != nil {
		t.Fatal(err)
	}
	good := encryptFeatures(sk, 22, [][]int{{0, 1, 2, 3}})

	if _, err := srv.InferBatch("v", nil, false); err == nil {
		t.Error("empty feature batch accepted")
	}
	if _, err := srv.InferBatch("v", good[:workload.InferFeatures-1], false); err == nil {
		t.Error("ragged feature batch accepted")
	}
	two := encryptFeatures(sk, 23, [][]int{{0, 1, 2, 3}, {1, 1, 1, 1}})
	if _, err := srv.InferBatch("v", two, false); err == nil || !strings.Contains(err.Error(), "batch size limit") {
		t.Errorf("oversized batch error = %v, want batch size limit", err)
	}
	bad := make([]tfhe.LWECiphertext, workload.InferFeatures)
	for i := range bad {
		bad[i] = tfhe.NewLWECiphertext(3)
	}
	if _, err := srv.InferBatch("v", bad, false); err == nil {
		t.Error("wrong-dimension ciphertexts accepted")
	}
	if _, err := srv.InferBatch("nobody", good, false); err == nil {
		t.Error("unknown session accepted")
	}
}
