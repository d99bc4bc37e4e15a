package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/tfhe"
	"repro/internal/torus"
)

// ---------------------------------------------------------------------------
// Sizes

// LWESize returns the encoded size of an LWE ciphertext of mask length n.
func LWESize(n int) int { return headerSize + 4 + 4*(n+1) }

// ParamsSize returns the encoded size of a parameter set.
func ParamsSize(p tfhe.Params) int { return headerSize + paramsPayloadSize(p) }

// paramsFixedSize is the header-less parameter payload without the name:
// name length byte + eight u32 fields + two f64 noise parameters.
const paramsFixedSize = 1 + 8*4 + 2*8

// paramsPayloadSize is the header-less parameter payload size.
func paramsPayloadSize(p tfhe.Params) int { return paramsFixedSize + len(p.Name) }

// EvalKeySize returns the encoded size of the evaluation keys for a
// parameter set. The second return is false for a set the codec refuses
// (see MarshalParams) or whose key size overflows an int64 (possible only
// for hostile parameter values, never for the shipped sets).
func EvalKeySize(p tfhe.Params) (int64, bool) {
	if checkParams(p) != nil {
		return 0, false
	}
	bsk, ok1 := bskBytes(p)
	ksk, ok2 := kskBytes(p)
	if !ok1 || !ok2 {
		return 0, false
	}
	return int64(keyHeaderSize(p)) + bsk + ksk, true
}

// mulSize multiplies non-negative sizes with overflow detection.
func mulSize(a, b int64) (int64, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > math.MaxInt64/b {
		return 0, false
	}
	return a * b, true
}

// bskBytes is the encoded size of the Fourier-domain bootstrapping key: n
// GGSW slabs of complex values, 16 bytes each. Inside the codec's limits
// neither factor overflows, but their product can.
func bskBytes(p tfhe.Params) (int64, bool) {
	return mulSize(int64(p.SmallN)*16, int64(p.GGSWValues()))
}

// kskBytes is the encoded size of the keyswitching key: k·N·lk LWE
// ciphertexts of dimension n, stored raw (no per-ciphertext headers).
func kskBytes(p tfhe.Params) (int64, bool) {
	size := int64(1)
	for _, f := range []int64{int64(p.ExtractedN()), int64(p.KSLevel), int64(p.SmallN + 1), 4} {
		var ok bool
		if size, ok = mulSize(size, f); !ok {
			return 0, false
		}
	}
	return size, true
}

// ---------------------------------------------------------------------------
// Parameter sets

// MarshalParams encodes a parameter set. It refuses exactly what
// UnmarshalParams would: a set that fails tfhe.Params.Validate or exceeds
// a decoder limit.
func MarshalParams(p tfhe.Params) ([]byte, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, ParamsSize(p))
	dst = appendHeader(dst, KindParams)
	return appendParamsPayload(dst, p), nil
}

// appendParamsPayload appends the header-less parameter payload.
func appendParamsPayload(dst []byte, p tfhe.Params) []byte {
	dst = append(dst, byte(len(p.Name)))
	dst = append(dst, p.Name...)
	for _, v := range []int{p.N, p.K, p.SmallN, p.PBSLevel, p.Security, p.PBSBaseLog, p.KSLevel, p.KSBaseLog} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.LWEStdDev))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.GLWEStdDev))
	return dst
}

// UnmarshalParams decodes a parameter set, rejecting anything that fails
// tfhe.Params.Validate or exceeds the decoder limits.
func UnmarshalParams(data []byte) (tfhe.Params, error) {
	r := &reader{buf: data}
	r.header(KindParams)
	p := decodeParamsPayload(r)
	if err := r.done(); err != nil {
		return tfhe.Params{}, err
	}
	return p, nil
}

// decodeParamsPayload decodes and validates the header-less parameter
// payload at the reader's cursor.
func decodeParamsPayload(r *reader) tfhe.Params {
	nameLen := int(r.u8())
	if nameLen > MaxName {
		r.failf("parameter set name length %d exceeds %d", nameLen, MaxName)
		return tfhe.Params{}
	}
	name := r.bytes(nameLen)
	var p tfhe.Params
	p.Name = string(name)
	fields := []*int{&p.N, &p.K, &p.SmallN, &p.PBSLevel, &p.Security, &p.PBSBaseLog, &p.KSLevel, &p.KSBaseLog}
	for _, f := range fields {
		*f = int(r.u32())
	}
	p.LWEStdDev = r.f64()
	p.GLWEStdDev = r.f64()
	if r.err == nil {
		r.err = checkParams(p)
	}
	if r.err != nil {
		return tfhe.Params{}
	}
	return p
}

// checkParams returns why the codec refuses p, or nil: the decoder limits
// (which bound every allocation sized from the parameters), finite noise,
// and tfhe.Params.Validate. Every encoder and the decoder call it, so
// nothing encodes that would not decode.
func checkParams(p tfhe.Params) error {
	switch {
	case len(p.Name) > MaxName:
		return fmt.Errorf("wire: parameter set name %q longer than %d bytes", p.Name, MaxName)
	case p.N > MaxPolyDegree:
		return fmt.Errorf("wire: polynomial degree %d exceeds %d", p.N, MaxPolyDegree)
	case p.K > MaxMaskLen:
		return fmt.Errorf("wire: GLWE mask length %d exceeds %d", p.K, MaxMaskLen)
	case p.SmallN > MaxLWEDim:
		return fmt.Errorf("wire: LWE dimension %d exceeds %d", p.SmallN, MaxLWEDim)
	case !finite(p.LWEStdDev) || !finite(p.GLWEStdDev):
		return fmt.Errorf("wire: non-finite noise stddev")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("wire: invalid parameters: %v", err)
	}
	if p.ExtractedN() > MaxLWEDim {
		return fmt.Errorf("wire: extracted dimension %d exceeds %d", p.ExtractedN(), MaxLWEDim)
	}
	return nil
}

// finite reports whether f is neither NaN nor infinite.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ---------------------------------------------------------------------------
// LWE ciphertexts

// MarshalLWE encodes an LWE ciphertext (any mask length).
func MarshalLWE(ct tfhe.LWECiphertext) []byte {
	dst := make([]byte, 0, LWESize(ct.N()))
	dst = appendHeader(dst, KindLWE)
	return appendLWEPayload(dst, ct)
}

// appendLWEPayload appends the mask length, mask, and body.
func appendLWEPayload(dst []byte, ct tfhe.LWECiphertext) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ct.N()))
	for _, a := range ct.A {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a))
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(ct.B))
}

// UnmarshalLWE decodes an LWE ciphertext.
func UnmarshalLWE(data []byte) (tfhe.LWECiphertext, error) {
	r := &reader{buf: data}
	r.header(KindLWE)
	ct := decodeLWEPayload(r)
	if err := r.done(); err != nil {
		return tfhe.LWECiphertext{}, err
	}
	return ct, nil
}

// decodeLWEPayload decodes the length-prefixed ciphertext at the cursor.
func decodeLWEPayload(r *reader) tfhe.LWECiphertext {
	n := int(r.u32())
	if n > MaxLWEDim {
		r.failf("LWE dimension %d exceeds %d", n, MaxLWEDim)
	}
	if !r.need(4 * (n + 1)) {
		return tfhe.LWECiphertext{}
	}
	ct := tfhe.NewLWECiphertext(n)
	readTorusInto(r, ct.A)
	ct.B = torus.Torus32(r.u32())
	return ct
}

// readTorusInto fills dst from the cursor. The caller has already
// bounds-checked the whole run.
func readTorusInto(r *reader, dst []torus.Torus32) {
	raw := r.bytes(4 * len(dst))
	if raw == nil {
		return
	}
	for i := range dst {
		dst[i] = torus.Torus32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

// ---------------------------------------------------------------------------
// Digests

// DigestLWEs returns the hex SHA-256 of the concatenated canonical
// encodings of cts — one fingerprint for a whole ciphertext batch.
func DigestLWEs(cts []tfhe.LWECiphertext) string {
	h := sha256.New()
	for _, ct := range cts {
		h.Write(MarshalLWE(ct))
	}
	return hex.EncodeToString(h.Sum(nil))
}
