//go:build !amd64 || purego

package torus

func detectAVX2() bool { return false }

func mulSubAVX2(dst, src *Torus32, n int, d int32) { panic("torus: no AVX2 body in this build") }
