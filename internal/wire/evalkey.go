package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/tfhe"
	"repro/internal/torus"
)

// The evaluation-key codec. The key is the one object too large to hold
// encoded beside its decoded form (49 MB at set I, 1.09 GB at set IV), so
// both directions are incremental: EncodeEvalKey is an io.Reader that
// produces the encoding a record at a time straight from the key, and
// DecodeEvalKey reads an io.Reader a chunk at a time straight into the
// key's slabs. MarshalEvalKey and UnmarshalEvalKey are those two over a
// byte slice.
//
// Layout: the object header, the parameter payload, then the
// Fourier-domain BSK and the raw KSK, both with shapes fully determined by
// the parameters (no per-object framing). Both keys are slabs in wire
// order (tfhe.GGSWFourier, EvaluationKeys.KSK), so a record is the header
// with the parameters, or the next N/2 complex values of a GGSW slab, or
// the next KSK ciphertext: a slice of a slab either way. A slab's memory
// is its wire bytes — little-endian float64 pairs, little-endian uint32
// words — so both directions move records as bulk byte copies, checking
// the BSK's values by their exponent bits, and a big-endian host swaps
// each word in place (swapWords).

// keyChunk is the decoder's read size: it reads a slab straight into the
// slab's memory at most this many bytes at a time, so it is also the
// largest write a tee in front of it sees.
const keyChunk = 64 << 10

// errNonFinite is a NaN or infinity in the BSK: it would silently poison
// every external product computed with the key, so neither direction
// passes one.
var errNonFinite = errors.New("wire: non-finite Fourier coefficient in bootstrapping key")

// bigEndian is whether this host stores words most significant byte
// first. The slabs' memory is their wire bytes only on a little-endian
// host; on a big-endian one each word is swapped on its way in and out.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// bytesOf returns the memory of a slab as bytes.
func bytesOf[T complex128 | torus.Torus32](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// floatBits returns the memory of complex values as the bits of their
// float64 parts, real and imaginary in turn.
func floatBits(s []complex128) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), 2*len(s))
}

// finiteBits reports whether every float64 whose bits are in w is finite,
// i.e. has an exponent field that is not all ones. The field plus one
// carries into the sign bit exactly when it is all ones, so the words are
// or-ed without a branch, into four accumulators that do not wait on each
// other (≈ 1.5× one), and tested once.
func finiteBits(w []uint64) bool {
	const exp, one = 0x7ff << 52, 1 << 52
	var c0, c1, c2, c3 uint64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		q := w[i : i+4 : i+4]
		c0 |= q[0]&exp + one
		c1 |= q[1]&exp + one
		c2 |= q[2]&exp + one
		c3 |= q[3]&exp + one
	}
	for _, v := range w[i:] {
		c0 |= v&exp + one
	}
	return (c0|c1|c2|c3)>>63 == 0
}

// swapWords reverses the bytes of each size-byte word of b in place: the
// one step between a big-endian host's memory and the little-endian wire,
// in either direction.
func swapWords(b []byte, size int) {
	for i := 0; i+size <= len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

// evalKeyEncoder is the reader EncodeEvalKey returns.
type evalKeyEncoder struct {
	ek    tfhe.EvaluationKeys
	next  int    // next record to encode
	polys int    // BSK polynomial records, after the one header record
	total int    // all records
	buf   []byte // spill buffer, reused by every record that straddles a Read, grown only for a larger one
	spill []byte // rest of a record that did not fit the caller's buffer, in buf
	err   error  // the first record that could not be encoded
}

// EncodeEvalKey returns a reader that yields the canonical encoding of ek,
// and the exact number of bytes it will yield. The encoding is produced as
// it is read, so a key can be sent without ever existing encoded; ek must
// not change until the reader is drained. The parameters and shapes are
// checked here; a non-finite BSK value, which the decoder would refuse,
// fails the Read that reaches it.
func EncodeEvalKey(ek tfhe.EvaluationKeys) (io.Reader, int64, error) {
	p := ek.Params
	if err := checkParams(p); err != nil {
		return nil, 0, err
	}
	if err := ek.Validate(); err != nil {
		return nil, 0, err
	}
	size, ok := EvalKeySize(p)
	if !ok {
		return nil, 0, fmt.Errorf("wire: evaluation key size overflows for set %q", p.Name)
	}
	polys := p.SmallN * (p.GGSWValues() / (p.N / 2))
	return &evalKeyEncoder{ek: ek, polys: polys, total: 1 + polys + p.ExtractedN()*p.KSLevel}, size, nil
}

// recordSize is the encoded size of record k.
func (e *evalKeyEncoder) recordSize(k int) int {
	p := e.ek.Params
	switch {
	case k == 0:
		return headerSize + paramsPayloadSize(p)
	case k <= e.polys:
		return 16 * (p.N / 2)
	}
	return 4 * (p.SmallN + 1)
}

// writeRecord writes the encoding of record k to dst, which is
// recordSize(k) bytes long. A slab record is the slab's bytes, copied
// after its values are checked.
func (e *evalKeyEncoder) writeRecord(dst []byte, k int) error {
	p := e.ek.Params
	switch {
	case k == 0:
		appendParamsPayload(appendHeader(dst[:0], KindEvalKey), p)
		return nil
	case k <= e.polys:
		m := p.N / 2
		off := (k - 1) * m
		g := e.ek.BSK[off/p.GGSWValues()]
		off %= p.GGSWValues()
		vals := g[off : off+m]
		if !finiteBits(floatBits(vals)) {
			return errNonFinite
		}
		copy(dst, bytesOf(vals))
		if bigEndian {
			swapWords(dst, 8)
		}
		return nil
	}
	// KSK ciphertexts carry no length prefix: the parameters imply it.
	// The slab is in wire order, so record k is its k-th row.
	k -= 1 + e.polys
	copy(dst, bytesOf(e.ek.KSK[k*(p.SmallN+1):(k+1)*(p.SmallN+1)]))
	if bigEndian {
		swapWords(dst, 4)
	}
	return nil
}

// Read implements io.Reader. Records that fit what is left of p are
// encoded in place; one that does not is encoded into the spill buffer and
// handed out across calls. A record that cannot be encoded ends the
// stream: that Read and every later one return its error.
func (e *evalKeyEncoder) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) && e.err == nil {
		if len(e.spill) == 0 {
			if e.next == e.total {
				break
			}
			k := e.next
			e.next++
			size := e.recordSize(k)
			if size <= len(p)-n {
				if e.err = e.writeRecord(p[n:n+size:n+size], k); e.err == nil {
					n += size
				}
				continue
			}
			if cap(e.buf) < size {
				e.buf = make([]byte, size)
			}
			if e.err = e.writeRecord(e.buf[:size:size], k); e.err != nil {
				break
			}
			e.spill = e.buf[:size]
		}
		c := copy(p[n:], e.spill)
		e.spill = e.spill[c:]
		n += c
	}
	switch {
	case e.err != nil:
		return n, e.err
	case n == 0 && len(p) > 0:
		return 0, io.EOF
	}
	return n, nil
}

// MarshalEvalKey encodes the evaluation keys into one buffer.
func MarshalEvalKey(ek tfhe.EvaluationKeys) ([]byte, error) {
	r, size, err := EncodeEvalKey(ek)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, size)
	if _, err := io.ReadFull(r, dst); err != nil {
		return nil, fmt.Errorf("wire: encoding evaluation key: %w", err)
	}
	return dst, nil
}

// UnmarshalEvalKey decodes evaluation keys from one buffer.
func UnmarshalEvalKey(data []byte) (tfhe.EvaluationKeys, error) {
	return DecodeEvalKey(bytes.NewReader(data), int64(len(data)))
}

// keyDecoder reads a key's bytes from its stream, counting them.
type keyDecoder struct {
	r   io.Reader
	off int64 // bytes read so far
}

// read fills b from the stream. A stream that ends first is truncated
// input; any other read failure is reported as the I/O error it is.
func (d *keyDecoder) read(b []byte) error {
	n, err := io.ReadFull(d.r, b)
	d.off += int64(n)
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		return fmt.Errorf("wire: truncated input: need %d bytes at offset %d, have %d", len(b), d.off-int64(n), n)
	}
	return fmt.Errorf("wire: reading evaluation key at offset %d: %w", d.off, err)
}

// params decodes the object header and parameter payload. Its length
// depends on the name-length byte right after the header, so it is read
// in two steps and then parsed by the same cursor as a standalone
// parameter object; a short stream is left to that cursor to report.
func (d *keyDecoder) params() (tfhe.Params, error) {
	buf := make([]byte, headerSize+paramsFixedSize+math.MaxUint8) // the longest name a length byte allows
	n, err := io.ReadFull(d.r, buf[:headerSize+1])
	if err == nil {
		var more int
		more, err = io.ReadFull(d.r, buf[n:headerSize+paramsFixedSize+int(buf[headerSize])])
		n += more
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return tfhe.Params{}, fmt.Errorf("wire: reading evaluation key header: %w", err)
	}
	cur := &reader{buf: buf[:n]}
	cur.header(KindEvalKey)
	p := decodeParamsPayload(cur)
	if cur.err != nil {
		return tfhe.Params{}, cur.err
	}
	d.off = int64(cur.off)
	return p, nil
}

// readFourier fills dst with complex values straight from the stream, a
// chunk at a time, and refuses a chunk holding a non-finite one.
func (d *keyDecoder) readFourier(dst []complex128) error {
	for len(dst) > 0 {
		run := dst[:min(len(dst), keyChunk/16)]
		raw := bytesOf(run)
		if err := d.read(raw); err != nil {
			return err
		}
		if bigEndian {
			swapWords(raw, 8)
		}
		if !finiteBits(floatBits(run)) {
			return errNonFinite
		}
		dst = dst[len(run):]
	}
	return nil
}

// readTorus fills dst with raw torus values straight from the stream, a
// chunk at a time.
func (d *keyDecoder) readTorus(dst []torus.Torus32) error {
	for len(dst) > 0 {
		run := dst[:min(len(dst), keyChunk/4)]
		raw := bytesOf(run)
		if err := d.read(raw); err != nil {
			return err
		}
		if bigEndian {
			swapWords(raw, 4)
		}
		dst = dst[len(run):]
	}
	return nil
}

// end checks that the stream ends where the object does — trailing
// garbage is a framing bug, not noise to ignore. It is also the read at
// which a source that verifies itself at EOF (a stored key's checksum)
// reports a failure.
func (d *keyDecoder) end() error {
	var one [1]byte
	switch _, err := io.ReadFull(d.r, one[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("wire: trailing bytes after object at offset %d", d.off)
	default:
		return fmt.Errorf("wire: reading evaluation key at offset %d: %w", d.off, err)
	}
}

// fill decodes total values of size bytes each, read by read, into one
// new slice. The slice grows only behind the bytes the stream has already
// delivered — to d.off/size values, or to twice the n it holds where that
// is more (the first GGSW, behind a header of a few dozen bytes: growing
// it a header's worth at a time would copy it quadratically), never past
// total — so a hostile header buys no more memory than about twice the
// bytes actually sent. For every real set each slab after the first GGSW
// is one exact allocation.
func fill[T any](d *keyDecoder, total, size int, read func([]T) error) ([]T, error) {
	var s []T
	for len(s) < total {
		n := len(s)
		grown := make([]T, min(total, max(int(d.off)/size, 2*n+1)))
		copy(grown, s)
		s = grown
		if err := read(s[n:]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// DecodeEvalKey decodes evaluation keys from r, which must yield exactly
// size bytes. The parameter payload is validated first and size is checked
// against the shapes it dictates before any key storage is allocated; from
// there each slab — a GGSW of the BSK, then the KSK — is filled straight
// from the stream and grown only behind the bytes already delivered
// (fill), so neither a hostile header nor a hostile size buys more memory
// than about twice the bytes actually sent.
func DecodeEvalKey(r io.Reader, size int64) (tfhe.EvaluationKeys, error) {
	d := &keyDecoder{r: r}
	p, err := d.params()
	if err != nil {
		return tfhe.EvaluationKeys{}, err
	}
	want, ok := EvalKeySize(p)
	if !ok {
		return tfhe.EvaluationKeys{}, fmt.Errorf("wire: evaluation key size overflows for set %q", p.Name)
	}
	if want != size {
		return tfhe.EvaluationKeys{}, fmt.Errorf("wire: evaluation key is %d bytes, want %d for set %q", size, want, p.Name)
	}

	ek := tfhe.EvaluationKeys{Params: p}
	for len(ek.BSK) < p.SmallN {
		g, err := fill(d, p.GGSWValues(), 16, d.readFourier)
		if err != nil {
			return tfhe.EvaluationKeys{}, err
		}
		ek.BSK = append(ek.BSK, tfhe.GGSWFourier(g))
	}
	if ek.KSK, err = fill(d, p.KSKWords(), 4, d.readTorus); err != nil {
		return tfhe.EvaluationKeys{}, err
	}
	if err := d.end(); err != nil {
		return tfhe.EvaluationKeys{}, err
	}
	if err := ek.Validate(); err != nil {
		return tfhe.EvaluationKeys{}, fmt.Errorf("wire: decoded key fails validation: %v", err)
	}
	return ek, nil
}
