package tensor

// isFiniteAVX2 is IsFinite over a len(v) that is a multiple of 16.
//
//go:noescape
func isFiniteAVX2(v []float64) bool
