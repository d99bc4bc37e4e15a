package wire

import (
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
// twice (49 MB at set I, 1.09 GB at set IV), so its bytes are the key:
// EncodeEvalKey is an io.Reader that produces the encoding a record at a
// time straight from the key, and ViewEvalKey checks an encoding and
// returns keys whose slabs are views of its bytes, not copies of them.
// A receiver reads a stream by checking its header (ReadEvalKeyHeader),
// reading header and rest into memory that grows behind the bytes
// delivered (ReadSized), and viewing that (ViewEvalKey); MarshalEvalKey
// and UnmarshalEvalKey are the two directions over one byte slice.
//
// Layout (format version 2): the object header and the parameter payload,
// zero-padded to a 64-byte boundary (keyHeaderSize); then the
// Fourier-domain BSK, 64-byte aligned; then the raw KSK, 16-byte aligned
// behind it. Both keys have shapes fully determined by the parameters (no
// per-object framing) and are slabs in wire order (tfhe.GGSWFourier,
// EvaluationKeys.KSK), so GGSW i is the run of GGSWValues complex values
// at keyHeaderSize + 16·i·GGSWValues, and the KSK the run of KSKWords
// words after the last. A slab's memory is its wire bytes — little-endian
// float64 pairs, little-endian uint32 words — so on a little-endian host
// the slabs alias the encoding; a big-endian host gets a copy with each
// word swapped (swapWords). The alignment makes the views as well aligned
// as the slabs key generation allocates, wherever the bytes start on a
// page: a file mapping, or a large heap buffer.

// keyAlign is the boundary the key header is padded to: the BSK's
// alignment in its encoding.
const keyAlign = 64

// keyHeaderSize is the encoded size of a key's object header, parameter
// payload and zero pad: the offset of its BSK.
func keyHeaderSize(p tfhe.Params) int { return padded(headerSize + paramsPayloadSize(p)) }

// padded rounds n up to a multiple of keyAlign.
func padded(n int) int { return (n + keyAlign - 1) &^ (keyAlign - 1) }

// keyChunk is the size of the pieces ReadSized gathers a stream's first
// bytes in, before it allocates the whole buffer.
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
		return keyHeaderSize(p)
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
		clear(dst[len(appendParamsPayload(appendHeader(dst[:0], KindEvalKey), p)):])
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

// UnmarshalEvalKey decodes evaluation keys from one buffer: it is
// ViewEvalKey, so the keys alias data, which must not change while they
// are in use.
func UnmarshalEvalKey(data []byte) (tfhe.EvaluationKeys, error) {
	return ViewEvalKey(data)
}

// ViewEvalKey checks that b is exactly one encoded evaluation key and
// returns the keys it holds, in one pass: the header and parameters, the
// size they dictate, the zero pad, and every BSK value finite. On a
// little-endian host the keys' slabs alias b (unsafe.Slice), so b must
// not change, nor its memory go away, while the keys are in use; on a
// big-endian host, or where b's key bytes are not word-aligned, they are
// a copy.
func ViewEvalKey(b []byte) (tfhe.EvaluationKeys, error) {
	p, err := keyHeader(b, int64(len(b)))
	if err != nil {
		return tfhe.EvaluationKeys{}, err
	}
	values, gv := p.SmallN*p.GGSWValues(), p.GGSWValues()
	raw := b[keyHeaderSize(p):]
	var bsk []complex128
	var ksk []torus.Torus32
	if bigEndian || uintptr(unsafe.Pointer(unsafe.SliceData(raw)))%8 != 0 {
		bsk, ksk = make([]complex128, values), make([]torus.Torus32, p.KSKWords())
		copy(bytesOf(bsk), raw)
		copy(bytesOf(ksk), raw[16*values:])
		if bigEndian {
			swapWords(bytesOf(bsk), 8)
			swapWords(bytesOf(ksk), 4)
		}
	} else {
		bsk = unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(raw))), values)
		ksk = unsafe.Slice((*torus.Torus32)(unsafe.Pointer(&raw[16*values])), p.KSKWords())
	}
	if !finiteBits(floatBits(bsk)) {
		return tfhe.EvaluationKeys{}, errNonFinite
	}
	ek := tfhe.EvaluationKeys{Params: p, BSK: make([]tfhe.GGSWFourier, p.SmallN), KSK: ksk}
	for i := range ek.BSK {
		ek.BSK[i] = bsk[i*gv : (i+1)*gv : (i+1)*gv]
	}
	return ek, nil
}

// keyHeader parses the object header, parameters and zero pad at the
// start of b, and checks the key's declared size against the parameters.
// The pad must be all zeros: the encoding is canonical, so nothing may
// hide there.
func keyHeader(b []byte, size int64) (tfhe.Params, error) {
	cur := &reader{buf: b}
	cur.header(KindEvalKey)
	p := decodeParamsPayload(cur)
	if cur.err != nil {
		return tfhe.Params{}, cur.err
	}
	hdr := keyHeaderSize(p)
	want, ok := EvalKeySize(p)
	switch {
	case len(b) < hdr:
		return tfhe.Params{}, fmt.Errorf("wire: truncated input: need %d bytes at offset %d, have %d", hdr-cur.off, cur.off, len(b)-cur.off)
	case !ok:
		return tfhe.Params{}, fmt.Errorf("wire: evaluation key size overflows for set %q", p.Name)
	case want != size:
		return tfhe.Params{}, fmt.Errorf("wire: evaluation key is %d bytes, want %d for set %q", size, want, p.Name)
	}
	for _, c := range b[cur.off:hdr] {
		if c != 0 {
			return tfhe.Params{}, fmt.Errorf("wire: nonzero byte in the evaluation key's header pad")
		}
	}
	return p, nil
}

// ReadEvalKeyHeader reads the header, parameters and pad of an evaluation
// key from r, checks them and the declared size against each other, and
// returns the bytes it read: the first keyHeaderSize bytes of the key.
// It is the check a receiver makes before it stores or reserves anything
// for a key of that size. The header's length depends on the name-length
// byte right after the object header, so it is read in two steps; a short
// stream is left to the parse to report.
func ReadEvalKeyHeader(r io.Reader, size int64) ([]byte, error) {
	buf := make([]byte, padded(headerSize+paramsFixedSize+math.MaxUint8)) // the longest name a length byte allows
	n, err := io.ReadFull(r, buf[:headerSize+1])
	if err == nil {
		var more int
		more, err = io.ReadFull(r, buf[n:padded(headerSize+paramsFixedSize+int(buf[headerSize]))])
		n += more
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("wire: reading evaluation key header: %w", err)
	}
	if _, err := keyHeader(buf[:n], size); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// ReadSized reads the size bytes r yields into one new buffer, and checks
// that r ends there. The buffer is allocated whole only once r has
// delivered an eighth of it; the bytes before that gather in pieces of at
// most keyChunk. So a stream that declares a size and stops short buys at
// most eight times the bytes it delivered, plus one piece, and a whole
// one costs at most 1.125 times its size, plus one piece. A stream that
// ends early is truncated input; any other read failure is reported as
// the I/O error it is.
func ReadSized(r io.Reader, size int64) ([]byte, error) {
	if size < 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("wire: cannot hold a %d-byte object", size)
	}
	var pieces [][]byte
	var got int64
	for size > keyChunk && got < size/8 {
		piece := make([]byte, min(keyChunk, size-got))
		if err := readAt(r, piece, got); err != nil {
			return nil, err
		}
		pieces = append(pieces, piece)
		got += int64(len(piece))
	}
	buf := make([]byte, size)
	at := 0
	for _, piece := range pieces {
		at += copy(buf[at:], piece)
	}
	if err := readAt(r, buf[at:], got); err != nil {
		return nil, err
	}
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); err {
	case io.EOF:
		return buf, nil
	case nil:
		return nil, fmt.Errorf("wire: trailing bytes after object at offset %d", size)
	default:
		return nil, fmt.Errorf("wire: reading at offset %d: %w", size, err)
	}
}

// readAt fills b from r, whose bytes before b's are off.
func readAt(r io.Reader, b []byte, off int64) error {
	n, err := io.ReadFull(r, b)
	switch err {
	case nil:
		return nil
	case io.EOF, io.ErrUnexpectedEOF:
		return fmt.Errorf("wire: truncated input: need %d bytes at offset %d, have %d", len(b), off, n)
	}
	return fmt.Errorf("wire: reading at offset %d: %w", off+int64(n), err)
}
