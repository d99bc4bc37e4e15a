package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// FuzzEvalDecode pins the eval frame decoder's contract: it never panics
// on arbitrary bytes (the body is attacker-controlled), it only accepts
// envelopes whose payload matches their kind and whose record lists fit
// the batch bound, and the records it accepts are exactly the ones its
// ciphertexts encode back to. An accepted frame re-encodes to a frame
// that decodes to the same envelope. POST /v2/eval/{client_id} is the
// only evaluation endpoint and this is its parse path, so this is the
// single fuzz target for the whole evaluation API (the key upload's body
// is the wire codec's own fuzz surface, FuzzUnmarshalEvalKey). Plain `go
// test` replays the f.Add seeds plus the committed corpus under
// testdata/fuzz/ in regression mode; the nightly workflow gives it a real
// exploration budget.
func FuzzEvalDecode(f *testing.F) {
	for _, seed := range evalFuzzSeeds() {
		f.Add(seed)
	}
	const maxBatch = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		req, ops, err := decodeEvalFrame(data, maxBatch)
		if err != nil {
			return
		}
		if err := validateEvalShape(&req); err != nil {
			t.Fatalf("accepted envelope fails shape validation: %v", err)
		}
		if ops.b != nil && req.Kind != EvalKindGate {
			t.Fatalf("accepted a second operand list on a %q envelope", req.Kind)
		}
		if len(ops.a)+len(ops.b) > 2*maxBatch {
			t.Fatalf("accepted %d and %d records over the bound 2 × %d", len(ops.a), len(ops.b), maxBatch)
		}
		n := int(binary.LittleEndian.Uint32(data[12:]))
		records, err := wire.AppendLWERecords(nil, n, append(append([]tfhe.LWECiphertext{}, ops.a...), ops.b...))
		if err != nil {
			t.Fatalf("accepted records of another dimension than the prefix's %d: %v", n, err)
		}
		if !bytes.HasSuffix(data, records) {
			t.Fatal("accepted records that do not encode back to the frame's")
		}
		again, err := appendEvalFrame(req, ops.a, ops.b)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		req2, ops2, err := decodeEvalFrame(again, maxBatch)
		if err != nil || !reflect.DeepEqual(req, req2) || !reflect.DeepEqual(ops, ops2) {
			t.Fatalf("re-encoded frame decodes to %+v, %v; want %+v", req2, err, req)
		}
	})
}

// evalFuzzSeeds returns one valid frame per kind plus hostile mutations
// of them (the committed corpus under testdata/fuzz extends these).
func evalFuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	sk, _ := tfhe.GenerateKeys(rng, tfhe.ParamsTest)
	cts := []tfhe.LWECiphertext{
		sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(1, 4), tfhe.ParamsTest.LWEStdDev),
		sk.LWE.Encrypt(rng, tfhe.EncodePBSMessage(3, 4), tfhe.ParamsTest.LWEStdDev),
	}
	frame := func(req EvalRequest, a, b []tfhe.LWECiphertext) []byte {
		data, err := appendEvalFrame(req, a, b)
		if err != nil {
			panic(err)
		}
		return data
	}
	// patch returns a copy of data with prefix word i set to v.
	patch := func(data []byte, i int, v uint32) []byte {
		c := bytes.Clone(data)
		binary.LittleEndian.PutUint32(c[4*i:], v)
		return c
	}
	gate := frame(EvalRequest{Kind: EvalKindGate, Op: "NAND"}, cts[:1], cts[1:])
	not := frame(EvalRequest{Kind: EvalKindGate, Op: "NOT"}, cts, nil)
	lut := frame(EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: [][]int{{0, 1, 2, 3}}}, cts, nil)
	multilut := frame(EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Tables: [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}}}, cts, nil)
	circuit := frame(EvalRequest{
		Kind: EvalKindCircuit,
		Nodes: []sched.NodeSpec{
			{Kind: sched.SpecInput}, {Kind: sched.SpecInput},
			{Kind: sched.SpecGate, Op: "NAND", A: 0, B: 1},
		},
		Outputs: []int{2},
		Opts:    EvalOpts{Optimize: true},
	}, cts, nil)
	infer := frame(EvalRequest{Kind: EvalKindInfer, Opts: EvalOpts{Optimize: true}}, cts, nil)
	n := uint32(tfhe.ParamsTest.SmallN)
	return [][]byte{
		gate, not, lut, multilut, circuit, infer,
		{},
		gate[:framePrefix-1],
		patch(gate, 0, 0x58525453),                   // a wire object's magic
		patch(gate, 1, frameVersion+1),               // another version
		patch(gate, 2, uint32(len(gate))),            // header length past the body
		append(bytes.Clone(gate), 0),                 // trailing byte
		gate[:len(gate)-1],                           // truncated record
		patch(multilut, 5, 1),                        // b records on a lookup
		patch(gate, 3, wire.MaxLWEDim+1),             // n over the bound
		patch(not, 4, uint32(1<<32/(uint64(n)+1)+1)), // count·(n+1) past 32 bits
		patch(not, 4, 1<<30),                         // a count past the batch bound
		frame(EvalRequest{Kind: "lut", Space: 4, Tables: [][]int{{0}}}, cts, nil),
		frame(EvalRequest{Kind: EvalKindGate, Op: "NOT", Space: 4}, cts, nil),
		frame(EvalRequest{Kind: EvalKindMultiLUT, Space: 4, Opts: EvalOpts{Optimize: true}}, cts, nil),
		headerFrame(`{"kind":"gate","op":"NOT","unknown_field":1}`),
		headerFrame(`not json at all`),
	}
}

// FuzzKeyTrailer pins the key-file trailer decoder's contract. Its bytes
// come from disk, so on any file image it never panics and asks for no
// more than the footer and one body of at most maxTrailerBody bytes, and
// a trailer it accepts re-encodes to exactly the file's bytes after the
// key. The committed corpus under testdata/fuzz holds a torn trailer, a
// bit-flipped one, one whose ID is over-long under a valid CRC, and an
// empty file.
func FuzzKeyTrailer(f *testing.F) {
	blob := []byte("key bytes")
	data, err := appendKeyTrailer(bytes.Clone(blob), keyTrailer{clientID: "alice", params: "I", keyBytes: int64(len(blob)), keyCRC: crc32.ChecksumIEEE(blob)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &readCounter{b: data}
		tr, err := readKeyTrailer(r, int64(len(data)))
		if r.read > trailerFooter+maxTrailerBody {
			t.Fatalf("read %d bytes, over the footer and the largest body", r.read)
		}
		if err != nil {
			return
		}
		again, err := appendKeyTrailer(nil, tr)
		if err != nil {
			t.Fatalf("accepted trailer %+v does not re-encode: %v", tr, err)
		}
		if tr.keyBytes+int64(len(again)) != int64(len(data)) || !bytes.Equal(data[tr.keyBytes:], again) {
			t.Fatalf("accepted trailer %+v re-encodes to other bytes than the file's", tr)
		}
	})
}
