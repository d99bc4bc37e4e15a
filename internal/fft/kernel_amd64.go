//go:build !purego

package fft

import "unsafe"

// The SIMD bodies, entered only from kernel_fast.go: the AVX2 ones in
// kernel_amd64.s, the AVX-512 ones in kernel_avx512_amd64.s. n counts
// complex values. Every body but mulAccTile reads or writes block-planar
// data (kernel_fast.go), in blocks of four values (…AVX2) or eight
// (…AVX512): the radix-4 stages and the fold take it in and out with
// q = s/4 ≥ the block width; fwdTail takes it in and writes interleaved
// values, invHead reads interleaved values and writes it, both over a
// multiple of four blocks (sixteen values for AVX2, thirty-two for
// AVX-512); decompLoad writes it for cnt pairs from pair lo, cnt a
// positive multiple of two blocks and lo of one. mulAccTile takes an even
// n, 1–4 members and at least one row. Every tw is a stage's block-planar
// table of the body's width (stage.planar, stage.planar8) and the fold's
// untwist the processor's (untwistPlanar, untwistPlanar8). decompLoad's
// twr and twi point into the processor's twist planes, its real and its
// imaginary parts, at pair lo, and pa, pb, sa and sb at the four source
// words of pair lo.

//go:noescape
func fwdStage4AVX2(buf *complex128, n, s int, tw *float64)

//go:noescape
func fwdTailAVX2(buf *complex128, n int, tw *float64)

//go:noescape
func invHeadAVX2(dst, src *complex128, n int, tw *float64)

//go:noescape
func invStage4AVX2(buf *complex128, n, s int, tw *float64)

//go:noescape
func invFoldAVX2(dst *uint32, src *complex128, q int, tw, untwist *float64)

//go:noescape
func mulAccTileAVX2(acc, dig, key *unsafe.Pointer, members, rows, n int)

//go:noescape
func decompLoadAVX2(dp *unsafe.Pointer, lb int, twr, twi *float64, pa, pb, sa, sb *uint32, lo, cnt int, na, nb, sub, rhalf, mask, rshift, bl uint32)

//go:noescape
func fwdStage4AVX512(buf *complex128, n, s int, tw *float64)

//go:noescape
func fwdTailAVX512(buf *complex128, n int, tw *float64)

//go:noescape
func invHeadAVX512(dst, src *complex128, n int, tw *float64)

//go:noescape
func invStage4AVX512(buf *complex128, n, s int, tw *float64)

//go:noescape
func invFoldAVX512(dst *uint32, src *complex128, q int, tw, untwist *float64)

//go:noescape
func decompLoadAVX512(dp *unsafe.Pointer, lb int, twr, twi *float64, pa, pb, sa, sb *uint32, lo, cnt int, na, nb, sub, rhalf, mask, rshift, bl uint32)
