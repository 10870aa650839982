package tensor

// isFiniteAVX2 is IsFinite over a len(v) that is a multiple of 16.
//
//go:noescape
func isFiniteAVX2(v []float64) bool

// widenF32AVX2 is WidenF32LE over a len(dst) that is a multiple of 16.
//
//go:noescape
func widenF32AVX2(dst []float64, src []byte) bool
