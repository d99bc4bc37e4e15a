// Package wire is the versioned binary codec of the gate service: the
// canonical byte encoding of LWE ciphertexts, parameter sets, and
// evaluation keys (the Fourier-domain BSK plus the KSK) that crosses the
// client/server boundary.
//
// The trust model follows the classic FHE service split: clients keep
// their secret keys and ship only ciphertexts and evaluation keys; the
// server decodes those bytes from an untrusted peer. Decoding is therefore
// strict — every length is bounds-checked before allocation, shapes are
// re-validated against the parameter set, floats must be finite, and
// trailing bytes are an error — and it never panics on malformed input
// (locked down by the package's fuzz harnesses).
//
// Every encoded object starts with an 8-byte header: the "STRX" magic, a
// format version, and a kind tag. Parameter sets and ciphertexts are
// format version 1 (Version); evaluation keys are version 2
// (EvalKeyVersion), whose header and parameters are zero-padded to 64
// bytes so that the key's slabs follow aligned and ViewEvalKey can use
// the encoded bytes as the key in place. All integers are little-endian;
// Fourier-domain values are raw IEEE-754 bits, so Unmarshal(Marshal(x)) is
// bitwise-identical to x. Sizes are fully determined by the parameter
// set, so the Size accessors give exact buffer lengths for framing.
package wire
