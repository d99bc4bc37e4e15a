//go:build !amd64 || purego

package torus

// readCPU reports no CPU features: this build has no assembly.
func readCPU() cpuWords { return cpuWords{} }

func mulSubAVX2(dst, src *Torus32, n int, d int32) { panic("torus: no AVX2 body in this build") }
