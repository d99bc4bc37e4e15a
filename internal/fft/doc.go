// Package fft provides the Fourier substrate for negacyclic polynomial
// multiplication in TFHE, implementing the *folding scheme* the Strix paper
// adopts for its FFT units (§V-A, ref [48]): an N-coefficient negacyclic
// polynomial is transformed with an N/2-point complex FFT by packing the
// upper half of the coefficients into the imaginary lane and twisting by the
// primitive 2N-th roots of unity.
//
// The forward transform evaluates a real polynomial P at the points
// ω^(4k+1), ω = e^(iπ/N), k = 0..N/2-1 — one representative from each
// conjugate pair of odd 2N-th roots, which is exactly the information needed
// to multiply in Z[X]/(X^N+1). Pointwise products followed by the inverse
// transform therefore compute the negacyclic product directly, with no
// post-transform reordering — the property that lets the hardware pipeline
// stream polynomials with no matrix transposition.
//
// The reference kernels (kernel_ref.go) work on interleaved (re, im)
// values. The SIMD paths keep a transform's data block-planar — each
// block of values as its real parts, then its imaginary parts: four values
// on the AVX2 path, eight on the AVX-512 path, which runs eight butterfly
// lanes side by side where the paper's FFT units run many (§V-A, Table
// VII) — so the real and imaginary datapaths stay apart, as in those
// units, and convert back before a FourierPoly leaves the transform. All
// give the same bits; kernel.go has the rules that make them and which
// body runs where.
package fft
