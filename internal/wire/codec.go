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

// GLWESize returns the encoded size of a GLWE ciphertext with mask length
// k and polynomial degree n.
func GLWESize(k, n int) int { return headerSize + 8 + 4*(k+1)*n }

// ParamsSize returns the encoded size of a parameter set.
func ParamsSize(p tfhe.Params) int { return headerSize + paramsPayloadSize(p) }

// paramsFixedSize is the header-less parameter payload without the name:
// name length byte + eight u32 fields + two f64 noise parameters.
const paramsFixedSize = 1 + 8*4 + 2*8

// paramsPayloadSize is the header-less parameter payload size.
func paramsPayloadSize(p tfhe.Params) int { return paramsFixedSize + len(p.Name) }

// EvalKeySize returns the encoded size of the evaluation keys for a
// parameter set. The second return is false if the dimensions overflow a
// size computation (possible only for hostile parameter values, never for
// the shipped sets).
func EvalKeySize(p tfhe.Params) (int64, bool) {
	bsk, ok1 := bskBytes(p)
	ksk, ok2 := kskBytes(p)
	if !ok1 || !ok2 {
		return 0, false
	}
	return int64(headerSize+paramsPayloadSize(p)) + bsk + ksk, true
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

// bskBytes is the encoded size of the Fourier-domain bootstrapping key:
// n·(k+1)·lb·(k+1) polynomials of N/2 complex values, 16 bytes each.
func bskBytes(p tfhe.Params) (int64, bool) {
	size := int64(1)
	for _, f := range []int64{int64(p.SmallN), int64(p.K + 1), int64(p.PBSLevel), int64(p.K + 1), int64(p.N / 2), 16} {
		var ok bool
		if size, ok = mulSize(size, f); !ok {
			return 0, false
		}
	}
	return size, true
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

// MarshalParams encodes a parameter set.
func MarshalParams(p tfhe.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Name) > MaxName {
		return nil, fmt.Errorf("wire: parameter set name %q longer than %d bytes", p.Name, MaxName)
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
	if r.err != nil {
		return tfhe.Params{}
	}
	switch {
	case p.N > MaxPolyDegree:
		r.failf("polynomial degree %d exceeds %d", p.N, MaxPolyDegree)
	case p.K > MaxMaskLen:
		r.failf("GLWE mask length %d exceeds %d", p.K, MaxMaskLen)
	case p.SmallN > MaxLWEDim:
		r.failf("LWE dimension %d exceeds %d", p.SmallN, MaxLWEDim)
	case !finite(p.LWEStdDev) || !finite(p.GLWEStdDev):
		r.failf("non-finite noise stddev")
	default:
		if err := p.Validate(); err != nil {
			r.failf("invalid parameters: %v", err)
		} else if p.K*p.N > MaxLWEDim {
			r.failf("extracted dimension %d exceeds %d", p.K*p.N, MaxLWEDim)
		}
	}
	if r.err != nil {
		return tfhe.Params{}
	}
	return p
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
// GLWE ciphertexts

// MarshalGLWE encodes a GLWE ciphertext. All component polynomials must
// share one degree.
func MarshalGLWE(ct tfhe.GLWECiphertext) ([]byte, error) {
	if len(ct.Polys) == 0 {
		return nil, fmt.Errorf("wire: cannot marshal empty GLWE ciphertext")
	}
	n := ct.PolyN()
	for i, p := range ct.Polys {
		if p.N() != n {
			return nil, fmt.Errorf("wire: GLWE component %d has degree %d, want %d", i, p.N(), n)
		}
	}
	dst := make([]byte, 0, GLWESize(ct.K(), n))
	dst = appendHeader(dst, KindGLWE)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ct.K()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, p := range ct.Polys {
		for _, c := range p.Coeffs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
		}
	}
	return dst, nil
}

// UnmarshalGLWE decodes a GLWE ciphertext. The polynomial degree must be a
// power of two >= 4 (the invariant every transform layer assumes).
func UnmarshalGLWE(data []byte) (tfhe.GLWECiphertext, error) {
	r := &reader{buf: data}
	r.header(KindGLWE)
	k := int(r.u32())
	n := int(r.u32())
	switch {
	case r.err != nil:
	case k < 0 || k > MaxMaskLen:
		r.failf("GLWE mask length %d exceeds %d", k, MaxMaskLen)
	case n < 4 || n > MaxPolyDegree || n&(n-1) != 0:
		r.failf("GLWE polynomial degree %d is not a power of two in [4, %d]", n, MaxPolyDegree)
	}
	if r.err == nil && !r.need(4*(k+1)*n) {
		return tfhe.GLWECiphertext{}, r.err
	}
	if r.err != nil {
		return tfhe.GLWECiphertext{}, r.err
	}
	ct := tfhe.NewGLWECiphertext(k, n)
	for _, p := range ct.Polys {
		readTorusInto(r, p.Coeffs)
	}
	if err := r.done(); err != nil {
		return tfhe.GLWECiphertext{}, err
	}
	return ct, nil
}

// ---------------------------------------------------------------------------
// Digests

// Digest returns the hex SHA-256 of data — the fingerprint primitive of
// the golden known-answer vectors.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// DigestLWE returns the hex SHA-256 of the canonical encoding of ct.
func DigestLWE(ct tfhe.LWECiphertext) string { return Digest(MarshalLWE(ct)) }

// DigestLWEs returns the hex SHA-256 of the concatenated canonical
// encodings of cts — one fingerprint for a whole ciphertext batch.
func DigestLWEs(cts []tfhe.LWECiphertext) string {
	h := sha256.New()
	for _, ct := range cts {
		h.Write(MarshalLWE(ct))
	}
	return hex.EncodeToString(h.Sum(nil))
}
