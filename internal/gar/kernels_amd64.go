package gar

// median5AVX2 writes dst[k] = median5(a[k], b[k], c[k], d[k], e[k]) a block
// of four coordinates at a time and returns how many it wrote: all
// len(dst), a multiple of 4, unless it stopped at a block with a NaN input
// or a zero result, which it leaves unwritten. The inputs are at least as
// long as dst.
//
//go:noescape
func median5AVX2(dst, a, b, c, d, e []float64) int

// pairBlocksAVX2 runs four blocks over the first w rows of a transposed
// tile t (row length stride): for block k = 0 … 3 and lane l = 0 … 3, with
// i, j = off[2k], off[2k+1], in order c = 0 … w−1 (w ≥ 1),
//
//	δ = t[c·stride + i] − t[c·stride + j + l];  acc[4k+l] = acc[4k+l] + δ·δ
//
// with those first operands (they decide which NaN payload survives), as in
// the Go loop; four independent blocks keep the three FP ports busy.
//
//go:noescape
func pairBlocksAVX2(acc *[16]float64, t []float64, stride int, off *[8]int, w int)

// transpose8AVX2 sets dst[c·stride + r] = (a, b, c, d, e, f, g, h)[r][c]
// for c < len(a), a multiple of 4; the other inputs are at least as long.
//
//go:noescape
func transpose8AVX2(dst []float64, stride int, a, b, c, d, e, f, g, h []float64)

// lineOffset is how many float64s p lies before a 64-byte boundary: Go
// cannot align a stack array, and transpose8AVX2 fills whole cache lines.
//
//go:noescape
func lineOffset(p *float64) int
