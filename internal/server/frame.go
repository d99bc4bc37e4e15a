package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/engine"
	"repro/internal/tfhe"
	"repro/internal/wire"
)

// The eval frame is the body of POST /v2/eval/{client_id} and of its 200
// reply. Ciphertexts travel as contiguous wire records, so a batch is
// copied once into one backing array on each side and never re-encoded
// per item.
//
// A request is six little-endian words — magic, version, header length
// h, LWE dimension n, and the record counts of the two operand lists —
// then h bytes of header, the JSON of the EvalRequest's other fields, then
// the records of both lists, n+1 words each. The first list is the
// envelope's a, cts or inputs; the second is b, a binary gate's second
// operand, and empty for every other kind.
//
// A reply is three words — k, count, n — then the count output records,
// flat and input-major, k per input. Errors are the JSON ErrorResponse.
const (
	frameMagic   = 0x56455853 // "SXEV" little-endian
	frameVersion = 1
	framePrefix  = 6 * 4
	replyPrefix  = 3 * 4
)

// EvalPath returns the request path of an evaluation for clientID, the
// one escaped segment SessionPath makes of it.
func EvalPath(clientID string) string { return "/v2/eval/" + idSegment(clientID) }

// appendWords appends each word as a little-endian uint32.
func appendWords(dst []byte, words ...int) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	}
	return dst
}

// frameDim is the mask length of a batch's records: that of its first
// ciphertext, 0 for an empty batch.
func frameDim(lists ...[]tfhe.LWECiphertext) int {
	for _, l := range lists {
		if len(l) > 0 {
			return l[0].N()
		}
	}
	return 0
}

// appendEvalFrame encodes the request frame of req over the operand lists
// a and b, which must share one mask length.
func appendEvalFrame(req EvalRequest, a, b []tfhe.LWECiphertext) ([]byte, error) {
	header, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	n := frameDim(a, b)
	dst := make([]byte, 0, framePrefix+len(header)+(len(a)+len(b))*wire.LWERecordSize(n))
	dst = append(appendWords(dst, frameMagic, frameVersion, len(header), n, len(a), len(b)), header...)
	if dst, err = wire.AppendLWERecords(dst, n, a); err != nil {
		return nil, err
	}
	return wire.AppendLWERecords(dst, n, b)
}

// frameError reports a request or reply that is not a well-formed frame.
func frameError(format string, args ...any) error {
	return fmt.Errorf("server: bad eval frame: "+format, args...)
}

// decodeEvalFrame decodes one request frame into its envelope and
// operands: the prefix, the header (unknown fields refused, nothing after
// it), the envelope's shape, the record count — bounded by a gate batch
// at maxBatch before anything is sized from it, a refusal evalFrame
// answers and counts as it would translate's — and the records, copied
// into one backing array. It performs no session-dependent validation
// (the dimension check and the noise rule happen in evalDecoded), but it
// must never panic on arbitrary bytes: the body is attacker-controlled,
// and this is the fuzzing surface of the whole evaluation API
// (FuzzEvalDecode).
func decodeEvalFrame(body []byte, maxBatch int) (EvalRequest, evalOperands, error) {
	fail := func(err error) (EvalRequest, evalOperands, error) { return EvalRequest{}, evalOperands{}, err }
	if len(body) < framePrefix {
		return fail(frameError("%d bytes, shorter than the %d-byte prefix", len(body), framePrefix))
	}
	word := func(i int) uint64 { return uint64(binary.LittleEndian.Uint32(body[4*i:])) }
	magic, version, h, n, ca, cb := word(0), word(1), word(2), word(3), word(4), word(5)
	rest := body[framePrefix:]
	switch {
	case magic != frameMagic || version != frameVersion:
		return fail(frameError("magic 0x%08x version %d, want 0x%08x version %d", magic, version, frameMagic, frameVersion))
	case h > uint64(len(rest)):
		return fail(frameError("header length %d past the body's %d bytes", h, len(rest)))
	}
	var req EvalRequest
	dec := json.NewDecoder(bytes.NewReader(rest[:h]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fail(frameError("header: %v", err))
	}
	if _, err := dec.Token(); err != io.EOF {
		return fail(frameError("data after the header"))
	}
	if err := validateEvalShape(&req); err != nil {
		return fail(err)
	}
	if cb != 0 && req.Kind != EvalKindGate {
		return fail(evalKindError("field %q is not part of a %q envelope", "b", req.Kind))
	}
	if ca+cb > 2*uint64(maxBatch) {
		return fail(fmt.Errorf("%w: %d records > 2 × %d", ErrBatchTooLarge, ca+cb, maxBatch))
	}
	var ops evalOperands
	var err error
	if req.Kind == EvalKindGate {
		if ops.op, err = engine.ParseGate(req.Op); err != nil {
			return fail(err)
		}
	}
	cts, err := wire.ReadLWERecords(rest[h:], int(n), int(ca+cb))
	if err != nil {
		return fail(frameError("records: %v", err))
	}
	ops.a = cts[:ca:ca]
	if cb != 0 { // a NOT batch has no second list, not an empty one
		ops.b = cts[ca:]
	}
	return req, ops, nil
}

// appendEvalReply encodes the reply frame of an evaluation's flat output
// batch, k outputs per input.
func appendEvalReply(k int, out []tfhe.LWECiphertext) ([]byte, error) {
	n := frameDim(out)
	dst := make([]byte, 0, replyPrefix+len(out)*wire.LWERecordSize(n))
	return wire.AppendLWERecords(appendWords(dst, k, len(out), n), n, out)
}

// decodeEvalReply decodes a reply frame into its flat output batch and
// the outputs per input k.
func decodeEvalReply(data []byte) ([]tfhe.LWECiphertext, int, error) {
	if len(data) < replyPrefix {
		return nil, 0, frameError("reply of %d bytes, shorter than the %d-byte prefix", len(data), replyPrefix)
	}
	k, count, n := binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:]), binary.LittleEndian.Uint32(data[8:])
	out, err := wire.ReadLWERecords(data[replyPrefix:], int(n), int(count))
	if err != nil {
		return nil, 0, frameError("reply records: %v", err)
	}
	return out, int(k), nil
}

// ReadEvalBody reads the body of an eval request: exactly the size it
// declares, into one buffer that grows with the bytes that arrive
// (readDeclared). A request that declares no size is refused 411 and one
// over MaxBatchBodyBytes 413, both before any body byte is read; a body
// shorter than declared is a bad request. The refusals are *APIError
// values, so the router relays them as the server sends them.
func ReadEvalBody(r *http.Request) ([]byte, error) {
	size, err := declaredSize(r, MaxBatchBodyBytes, "eval request")
	if err != nil {
		return nil, err
	}
	body, err := readDeclared(r.Body, size)
	if err != nil {
		return nil, &APIError{Code: CodeBadRequest, Status: http.StatusBadRequest,
			Message: fmt.Sprintf("server: reading eval request body: %v", err)}
	}
	return body, nil
}

// readStep is the most readDeclared allocates before any byte arrives.
const readStep = 1 << 20

// readDeclared reads exactly size bytes from r into one buffer. The buffer
// starts at readStep, or at size when that is smaller, and doubles up to
// size as it fills, so a peer that declares more than it sends makes the
// reader hold about twice what it has sent rather than what it declared,
// and a body of up to readStep bytes costs one allocation.
func readDeclared(r io.Reader, size int64) ([]byte, error) {
	buf := make([]byte, min(size, readStep))
	for have := 0; ; {
		n, err := io.ReadFull(r, buf[have:])
		if have += n; err != nil {
			return nil, err
		}
		if int64(have) == size {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(size-int64(have), int64(have)))...)
	}
}

// declaredSize returns the body size r declares, refusing a request that
// declares none (411) or more than max bytes (413).
func declaredSize(r *http.Request, max int64, what string) (int64, error) {
	switch size := r.ContentLength; {
	case size <= 0:
		return 0, &APIError{Code: CodeBadRequest, Status: http.StatusLengthRequired,
			Message: fmt.Sprintf("server: %s needs a Content-Length and a body", what)}
	case size > max:
		return 0, &APIError{Code: CodeTooLarge, Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("server: %s of %d bytes: %v", what, size, ErrBatchTooLarge)}
	default:
		return size, nil
	}
}
