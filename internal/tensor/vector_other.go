//go:build !amd64

package tensor

// cpu.AVX2 is false off amd64, so IsFinite never calls this.
func isFiniteAVX2([]float64) bool { panic("tensor: no AVX2 body on this architecture") }
