//go:build !amd64

package tensor

// cpu.AVX2 is false off amd64, so IsFinite and WidenF32LE never call these.
func isFiniteAVX2([]float64) bool { panic("tensor: no AVX2 body on this architecture") }

func widenF32AVX2([]float64, []byte) bool { panic("tensor: no AVX2 body on this architecture") }
