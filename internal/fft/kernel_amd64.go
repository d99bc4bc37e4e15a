//go:build !purego

package fft

import "unsafe"

// The AVX2 bodies (kernel_amd64.s), each entered only from the *Fast
// function of the same loop. n counts complex values; the radix-4 stages
// and the fold need q = s/4 ≥ 2, mulAccTile an even n, 1–4 members and at
// least one row, stage2 a multiple of four, decompLoad a run of cnt pairs,
// cnt a positive multiple of four.

//go:noescape
func fwdStage4AVX2(buf *complex128, n, s int, tw *float64)

//go:noescape
func invStage4AVX2(buf *complex128, n, s int, tw *float64)

//go:noescape
func mulAccTileAVX2(acc, dig, key *unsafe.Pointer, members, rows, n int)

//go:noescape
func stage2AVX2(dst, src *complex128, n int)

//go:noescape
func invFoldAVX2(dst *uint32, src *complex128, q int, tw, untwist *float64)

//go:noescape
func decompLoadAVX2(dp *unsafe.Pointer, lb int, tw *float64, src *uint32, oa, ob, m, lo, cnt int, na, nb, sub, rhalf, mask uint32, rshift, bl uint)
