package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Magic is the four-byte tag ("STRX", little-endian) that starts every
// encoded object.
const Magic uint32 = 0x58525453

// Version is the format version of parameter sets and ciphertexts.
// Decoders reject any other value, so the format can evolve without
// silent misreads.
const Version byte = 1

// EvalKeyVersion is the format version of evaluation keys. Version 2 pads
// the key's header and parameters with zeros to a 64-byte boundary, so
// that the bytes of a stored or received key can be used as the key in
// place (ViewEvalKey); a version 1 key is refused like any other version.
const EvalKeyVersion byte = 2

// versionOf is the format version of objects of kind k.
func versionOf(k Kind) byte {
	if k == KindEvalKey {
		return EvalKeyVersion
	}
	return Version
}

// Kind tags the object type in the header.
type Kind byte

// The object kinds.
const (
	KindParams  Kind = 1 // a tfhe.Params parameter set
	KindLWE     Kind = 2 // an LWE ciphertext
	KindGLWE    Kind = 3 // reserved: no GLWE codec, the number stays taken
	KindEvalKey Kind = 4 // evaluation keys (BSK + KSK)
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindParams:
		return "Params"
	case KindLWE:
		return "LWE"
	case KindGLWE:
		return "GLWE"
	case KindEvalKey:
		return "EvalKey"
	}
	return fmt.Sprintf("Kind(%d)", byte(k))
}

// Decoder sanity limits. They reject obviously hostile dimensions before
// any allocation is sized from attacker-controlled lengths; every
// legitimate parameter set (Table IV sets I–IV and the test set) is far
// inside them.
const (
	// MaxName bounds the parameter-set name length.
	MaxName = 32
	// MaxPolyDegree bounds the GLWE polynomial degree N.
	MaxPolyDegree = 1 << 20
	// MaxMaskLen bounds the GLWE mask length k.
	MaxMaskLen = 64
	// MaxLWEDim bounds LWE mask lengths (both n and the extracted k·N).
	MaxLWEDim = 1 << 26
)

// headerSize is the encoded size of the common object header: magic u32,
// version u8, kind u8, reserved u16 (zero).
const headerSize = 8

// appendHeader appends the object header for kind k.
func appendHeader(dst []byte, k Kind) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, versionOf(k), byte(k), 0, 0)
	return dst
}

// reader is a bounds-checked little-endian cursor over an input buffer.
// The first failure latches into err; subsequent reads return zero values,
// so decode paths can run straight-line and check the error once.
type reader struct {
	buf []byte
	off int
	err error
}

// failf latches the first error.
func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// remaining returns the number of unread bytes.
func (r *reader) remaining() int { return len(r.buf) - r.off }

// need checks that n more bytes are available.
func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || r.remaining() < n {
		r.failf("truncated input: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
		return false
	}
	return true
}

// u8 reads one byte.
func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// u16 reads a little-endian uint16.
func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// u32 reads a little-endian uint32.
func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// f64 reads a little-endian IEEE-754 double.
func (r *reader) f64() float64 {
	if !r.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// bytes reads n raw bytes (aliasing the input buffer).
func (r *reader) bytes(n int) []byte {
	if !r.need(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// header reads and checks the common object header for the wanted kind.
func (r *reader) header(want Kind) {
	if !r.need(headerSize) {
		return
	}
	if m := r.u32(); m != Magic {
		r.failf("bad magic 0x%08x, want 0x%08x", m, Magic)
		return
	}
	if v := r.u8(); v != versionOf(want) {
		r.failf("unsupported format version %d, want %d", v, versionOf(want))
		return
	}
	if k := Kind(r.u8()); k != want {
		r.failf("object kind %s, want %s", k, want)
		return
	}
	if res := r.u16(); res != 0 {
		r.failf("nonzero reserved header field 0x%04x", res)
	}
}

// done returns the latched error, or an error if unread bytes remain —
// trailing garbage is a framing bug, not noise to ignore.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if n := r.remaining(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes after object", n)
	}
	return nil
}
