package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// FuzzEvalDecode pins the v2 eval envelope decoder's contract: it never
// panics on arbitrary bytes (the body is attacker-controlled), it only
// accepts envelopes whose payload matches their kind, and any ciphertext
// it accepts is canonical under the wire codec. POST /v2/eval is the only
// evaluation endpoint and this is its parse path, so this is the single
// fuzz target for the whole evaluation API (the key upload's body is the
// wire codec's own fuzz surface, FuzzUnmarshalEvalKey).
// Plain `go test` replays the f.Add seeds plus the committed corpus
// under testdata/fuzz/ in regression mode; the nightly workflow gives it
// a real exploration budget.
func FuzzEvalDecode(f *testing.F) {
	for _, seed := range evalFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseEvalRequest(bytes.NewReader(data))
		var ops evalOperands
		if err == nil {
			ops, err = decodeEvalOperands(&req)
		}
		if err != nil {
			return
		}
		if err := validateEvalShape(&req); err != nil {
			t.Fatalf("accepted envelope fails shape validation: %v", err)
		}
		var blobs [][]byte
		switch req.Kind {
		case EvalKindGate:
			blobs = req.A
			if len(ops.b) != len(req.B) {
				t.Fatalf("decoded %d b-operands from %d blobs", len(ops.b), len(req.B))
			}
			for i, ct := range ops.b {
				if again := wire.MarshalLWE(ct); !bytes.Equal(again, req.B[i]) {
					t.Fatalf("accepted non-canonical b-operand %d", i)
				}
			}
		case EvalKindLUT, EvalKindMultiLUT:
			blobs = req.Cts
		case EvalKindCircuit, EvalKindInfer:
			blobs = req.Inputs
		default:
			t.Fatalf("accepted unknown kind %q", req.Kind)
		}
		if len(ops.a) != len(blobs) {
			t.Fatalf("decoded %d ciphertexts from %d blobs", len(ops.a), len(blobs))
		}
		for i, ct := range ops.a {
			if again := wire.MarshalLWE(ct); !bytes.Equal(again, blobs[i]) {
				t.Fatalf("accepted non-canonical ciphertext %d", i)
			}
		}
	})
}

// evalFuzzSeeds returns one valid envelope per kind plus cheap structural
// mutations (the committed corpus under testdata/fuzz extends these).
func evalFuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	sk, _ := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	cts := [][]byte{
		wire.MarshalLWE(sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(1, 4), tfhe.ParamsTest.LWEStdDev)),
		wire.MarshalLWE(sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(3, 4), tfhe.ParamsTest.LWEStdDev)),
	}
	mustJSON := func(req EvalRequest) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return data
	}
	gate := mustJSON(EvalRequest{ClientID: "fuzz", Kind: EvalKindGate, Op: "NAND", A: cts[:1], B: cts[1:]})
	lut := mustJSON(EvalRequest{ClientID: "fuzz", Kind: EvalKindLUT, Space: 4, Table: []int{0, 1, 2, 3}, Cts: cts})
	multilut := mustJSON(EvalRequest{
		ClientID: "fuzz", Kind: EvalKindMultiLUT,
		Space: 4, Tables: [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}}, Cts: cts,
	})
	circuit := mustJSON(EvalRequest{
		ClientID: "fuzz", Kind: EvalKindCircuit,
		Nodes: []sched.NodeSpec{
			{Kind: sched.SpecInput}, {Kind: sched.SpecInput},
			{Kind: sched.SpecGate, Op: "NAND", A: 0, B: 1},
		},
		Outputs: []int{2},
		Inputs:  cts,
		Opts:    EvalOpts{Optimize: true},
	})
	infer := mustJSON(EvalRequest{
		ClientID: "fuzz", Kind: EvalKindInfer,
		Inputs: cts,
		Opts:   EvalOpts{Optimize: true},
	})
	seeds := [][]byte{
		gate, lut, multilut, circuit, infer,
		[]byte(`{}`),
		[]byte(`{"client_id":"x","kind":"gate","op":"NOT","a":[]}`),
		[]byte(`{"client_id":"x","kind":"lut","space":-1,"table":null,"cts":["AAAA"]}`),
		[]byte(`{"client_id":"x","kind":"gate","space":4}`),
		[]byte(`{"client_id":"x","kind":"lut","opts":{"optimize":true}}`),
		[]byte(`{"client_id":"x","kind":"nonsense"}`),
		[]byte(`{"unknown_field":1}`),
		[]byte(`not json at all`),
		{},
		gate[:len(gate)/2],
		append(bytes.Clone(multilut), '}'),
	}
	if i := bytes.IndexByte(circuit, '"'); i >= 0 {
		c := bytes.Clone(circuit)
		c[i] = '\''
		seeds = append(seeds, c)
	}
	return seeds
}
