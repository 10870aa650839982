//go:build !amd64

package gar

// cpu.AVX2 is false off amd64, so the kernels never call these.

func median5AVX2(dst, a, b, c, d, e []float64) int                               { panic(noAVX2) }
func pairBlocksAVX2(*[16]float64, []float64, int, *[8]int, int)                  { panic(noAVX2) }
func transpose8AVX2(dst []float64, stride int, a, b, c, d, e, f, g, h []float64) { panic(noAVX2) }
func lineOffset(*float64) int                                                    { panic(noAVX2) }

const noAVX2 = "gar: no AVX2 kernels on this architecture"
