package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/fft"
	"repro/internal/tfhe"
	"repro/internal/torus"
)

// The evaluation-key codec. The key is the one object too large to hold
// encoded beside its decoded form (49 MB at set I, 1.09 GB at set IV), so
// both directions are incremental: EncodeEvalKey is an io.Reader that
// produces the encoding a record at a time straight from the key, and
// DecodeEvalKey consumes an io.Reader through one fixed chunk buffer.
// MarshalEvalKey and UnmarshalEvalKey are those two over a byte slice.
//
// Layout: the object header, the parameter payload, then the
// Fourier-domain BSK and the raw KSK, both with shapes fully determined by
// the parameters (no per-object framing). A record is the header with the
// parameters, one BSK polynomial, or one KSK ciphertext.

// keyChunk is the decoder's read buffer: the unit in which it pulls from
// the source, and so the write size a tee in front of it sees.
const keyChunk = 64 << 10

// evalKeyEncoder is the reader EncodeEvalKey returns.
type evalKeyEncoder struct {
	ek    tfhe.EvaluationKeys
	next  int    // next record to encode
	polys int    // BSK polynomial records, after the one header record
	total int    // all records
	spill []byte // rest of a record that did not fit the caller's buffer
}

// EncodeEvalKey returns a reader that yields the canonical encoding of ek,
// and the exact number of bytes it will yield. The encoding is produced as
// it is read, so a key can be sent without ever existing encoded; ek must
// not change until the reader is drained.
func EncodeEvalKey(ek tfhe.EvaluationKeys) (io.Reader, int64, error) {
	if err := ek.Validate(); err != nil {
		return nil, 0, err
	}
	p := ek.Params
	if len(p.Name) > MaxName {
		return nil, 0, fmt.Errorf("wire: parameter set name %q longer than %d bytes", p.Name, MaxName)
	}
	size, ok := EvalKeySize(p)
	if !ok {
		return nil, 0, fmt.Errorf("wire: evaluation key size overflows for set %q", p.Name)
	}
	polys := p.SmallN * (p.K + 1) * p.PBSLevel * (p.K + 1)
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

// appendRecord appends the encoding of record k.
func (e *evalKeyEncoder) appendRecord(dst []byte, k int) []byte {
	p := e.ek.Params
	switch {
	case k == 0:
		return appendParamsPayload(appendHeader(dst, KindEvalKey), p)
	case k <= e.polys:
		// BSK order: ciphertext, row group, level, column.
		k--
		c := k % (p.K + 1)
		k /= p.K + 1
		l := k % p.PBSLevel
		k /= p.PBSLevel
		for _, v := range e.ek.BSK[k/(p.K+1)].Rows[k%(p.K+1)][l][c] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(v)))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(v)))
		}
		return dst
	}
	// KSK ciphertexts carry no length prefix: the parameters imply it.
	// The slab is in wire order, so record k is its k-th row.
	k -= 1 + e.polys
	for _, w := range e.ek.KSK[k*(p.SmallN+1) : (k+1)*(p.SmallN+1)] {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

// Read implements io.Reader. Records that fit what is left of p are
// encoded in place; one that does not is encoded aside and handed out
// across calls.
func (e *evalKeyEncoder) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(e.spill) == 0 {
			if e.next == e.total {
				break
			}
			k := e.next
			e.next++
			if size := e.recordSize(k); size <= len(p)-n {
				e.appendRecord(p[n:n:n+size], k)
				n += size
				continue
			}
			e.spill = e.appendRecord(nil, k)
		}
		c := copy(p[n:], e.spill)
		e.spill = e.spill[c:]
		n += c
	}
	if n == 0 && len(p) > 0 {
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

// keyDecoder hands out the next bytes of a stream from one chunk buffer.
type keyDecoder struct {
	br   *bufio.Reader
	off  int64 // bytes handed out so far
	held int   // length of the last slice handed out, released by the next take
}

// take returns the next n bytes (n at most keyChunk), valid until the
// following call. A stream that ends first is truncated input; any other
// read failure is reported as the I/O error it is.
func (d *keyDecoder) take(n int) ([]byte, error) {
	d.br.Discard(d.held) // cannot fail: held bytes were peeked
	d.held = 0
	b, err := d.br.Peek(n)
	switch err {
	case nil:
		d.held = n
		d.off += int64(n)
		return b, nil
	case io.EOF:
		return nil, fmt.Errorf("wire: truncated input: need %d bytes at offset %d, have %d", n, d.off, len(b))
	}
	return nil, fmt.Errorf("wire: reading evaluation key at offset %d: %w", d.off, err)
}

// params decodes the object header and parameter payload. Its length
// depends on the name-length byte right after the header, so it is peeked
// in two steps and then parsed by the same cursor as a standalone
// parameter object; a short stream is left to that cursor to report.
func (d *keyDecoder) params() (tfhe.Params, error) {
	prefix, err := d.br.Peek(headerSize + 1)
	if err == nil {
		prefix, err = d.br.Peek(headerSize + paramsFixedSize + int(prefix[headerSize]))
	}
	if err != nil && err != io.EOF {
		return tfhe.Params{}, fmt.Errorf("wire: reading evaluation key header: %w", err)
	}
	cur := &reader{buf: prefix}
	cur.header(KindEvalKey)
	p := decodeParamsPayload(cur)
	if cur.err != nil {
		return tfhe.Params{}, cur.err
	}
	d.held, d.off = cur.off, int64(cur.off)
	return p, nil
}

// readFourier fills dst with m complex values, rejecting non-finite ones
// (they would silently poison every external product computed with the
// key).
func (d *keyDecoder) readFourier(dst fft.FourierPoly) error {
	for len(dst) > 0 {
		run := min(len(dst), keyChunk/16)
		raw, err := d.take(16 * run)
		if err != nil {
			return err
		}
		for i := range dst[:run] {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			if !finite(re) || !finite(im) {
				return fmt.Errorf("wire: non-finite Fourier coefficient in bootstrapping key")
			}
			dst[i] = complex(re, im)
		}
		dst = dst[run:]
	}
	return nil
}

// readTorus fills dst with raw torus values.
func (d *keyDecoder) readTorus(dst []torus.Torus32) error {
	for len(dst) > 0 {
		run := min(len(dst), keyChunk/4)
		raw, err := d.take(4 * run)
		if err != nil {
			return err
		}
		for i := range dst[:run] {
			dst[i] = torus.Torus32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		dst = dst[run:]
	}
	return nil
}

// end checks that the stream ends where the object does — trailing
// garbage is a framing bug, not noise to ignore. It is also the read at
// which a source that verifies itself at EOF (a stored key's checksum)
// reports a failure.
func (d *keyDecoder) end() error {
	d.br.Discard(d.held)
	switch _, err := d.br.Peek(1); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("wire: trailing bytes after object at offset %d", d.off)
	default:
		return fmt.Errorf("wire: reading evaluation key at offset %d: %w", d.off, err)
	}
}

// DecodeEvalKey decodes evaluation keys from r, which must yield exactly
// size bytes. The parameter payload is validated first and size is checked
// against the shapes it dictates before any key storage is allocated; from
// there storage is allocated just ahead of the bytes that fill it — a BSK
// polynomial at a time, the KSK slab never larger than what has already
// arrived — so neither a hostile header nor a hostile size buys more
// memory than the bytes actually sent.
func DecodeEvalKey(r io.Reader, size int64) (tfhe.EvaluationKeys, error) {
	d := &keyDecoder{br: bufio.NewReaderSize(r, keyChunk)}
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
	m := p.N / 2
	for len(ek.BSK) < p.SmallN {
		rows := make([][][]fft.FourierPoly, p.K+1)
		for j := range rows {
			rows[j] = make([][]fft.FourierPoly, p.PBSLevel)
			for l := range rows[j] {
				row := make([]fft.FourierPoly, p.K+1)
				for c := range row {
					row[c] = make(fft.FourierPoly, m)
					if err := d.readFourier(row[c]); err != nil {
						return tfhe.EvaluationKeys{}, err
					}
				}
				rows[j][l] = row
			}
		}
		ek.BSK = append(ek.BSK, tfhe.GGSWFourier{Rows: rows})
	}
	// The KSK slab is in wire order, so rows decode straight into it. Its
	// capacity never exceeds the words the stream has already delivered:
	// for every real set (the larger BSK comes first) one exact allocation.
	for total := p.KSKWords(); len(ek.KSK) < total; {
		n := len(ek.KSK)
		grown := make([]torus.Torus32, min(total, max(int(d.off/4), n+1)))
		copy(grown, ek.KSK)
		ek.KSK = grown
		if err := d.readTorus(ek.KSK[n:]); err != nil {
			return tfhe.EvaluationKeys{}, err
		}
	}
	if err := d.end(); err != nil {
		return tfhe.EvaluationKeys{}, err
	}
	if err := ek.Validate(); err != nil {
		return tfhe.EvaluationKeys{}, fmt.Errorf("wire: decoded key fails validation: %v", err)
	}
	return ek, nil
}
