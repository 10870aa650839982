package gar

import (
	"slices"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// pairTile is the Go loop's tile: 512 coordinates × q̄ = 13 inputs × 8
// bytes is 52 KiB, which stays in L2 (not L1) while all its pairs are
// visited, so the n(n−1)/2 distances cost one pass over the inputs.
const pairTile = 512

// newDistMatrix returns an n×n matrix of zeros for accumulatePairwise.
func newDistMatrix(n int) [][]float64 {
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	return dist
}

// accumulatePairwise extends the upper triangle of dist over the inputs'
// coordinates: dist[i][j] += Σ_c (xᵢ[c] − xⱼ[c])² for i < j. Every pair's
// sum runs strictly in coordinate order from the value already there — it
// is the serial tensor.SquaredDistance loop, resumable, so accumulating a
// vector shard by shard (in coordinate order) or whole produces the same
// bits. Each term is written acc += δ·δ, δ = xᵢ − xⱼ: FMA-fusing ports fuse
// SquaredDistance alike, and the AVX2 body keeps the operand order.
//
// Parallel over rows — the task owning row i extends every (i, j>i) cell,
// so each cell has one writer and the matrix is identical at any
// parallelism. Rows shrink as i grows; grain-1 chunks pulled dynamically
// keep the workers balanced (the AVX2 body's chunks are four rows: each
// transposes every tile). Small problems, and any call at one worker, run
// inline as one chunk of all rows: one pass over the inputs.
func accumulatePairwise(dist [][]float64, inputs []tensor.Vector) {
	n, d := len(inputs), len(inputs[0])
	rows, grain := pairwiseRows, 1
	if useAVX2 && n <= maxNet {
		rows, grain = pairwiseRowsAVX2, 4
	}
	if parallel.Workers() == 1 || (n-1)*d < 1<<15 {
		rows(dist, inputs, 0, n) // serial: no region, no closure
		return
	}
	parallel.For(n, grain, func(rlo, rhi int) { rows(dist, inputs, rlo, rhi) })
}

// pairwiseRows is accumulatePairwise's Go body for rows [rlo, rhi). Four
// pairs (i, j … j+3) share the inner loop to overlap their latency-bound
// add chains.
func pairwiseRows(dist [][]float64, inputs []tensor.Vector, rlo, rhi int) {
	n, d := len(inputs), len(inputs[0])
	for t := 0; t < d; t += pairTile {
		te := min(t+pairTile, d)
		for i := rlo; i < rhi; i++ {
			a, row := inputs[i][t:te], dist[i]
			j := i + 1
			for ; j+4 <= n; j += 4 {
				b0, b1 := inputs[j][t:te], inputs[j+1][t:te]
				b2, b3 := inputs[j+2][t:te], inputs[j+3][t:te]
				s0, s1, s2, s3 := row[j], row[j+1], row[j+2], row[j+3]
				for c, x := range a {
					d0 := x - b0[c]
					s0 += d0 * d0
					d1 := x - b1[c]
					s1 += d1 * d1
					d2 := x - b2[c]
					s2 += d2 * d2
					d3 := x - b3[c]
					s3 += d3 * d3
				}
				row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				b, s := inputs[j][t:te], row[j]
				for c, x := range a {
					d0 := x - b[c]
					s += d0 * d0
				}
				row[j] = s
			}
		}
	}
}

// pairwiseRowsAVX2 is pairwiseRows on AVX2 for n ≤ maxNet; its lanes are
// pairs, never coordinates. Per tile of avx2Span values (in this frame, on
// cache lines) inputs rlo … n−1 are transposed, one coordinate per row of
// stride ≥ n+3 lanes (a row's last block runs past n on zeros), and the
// blocks (i; j … j+3) of rows [rlo, rhi) run over it four to a call.
func pairwiseRowsAVX2(dist [][]float64, inputs []tensor.Vector, rlo, rhi int) {
	n, d := len(inputs), len(inputs[0])
	// Block k: i, j = off[2k], off[2k+1]; its sums in acc[4k …] until the end.
	var off [maxNet * maxNet / 2]int
	var acc [maxNet * maxNet]float64
	nb := 0
	for i := rlo; i < rhi; i++ {
		for j := i + 1; j < n; j += 4 {
			off[2*nb], off[2*nb+1] = i, j
			copy(acc[4*nb:], dist[i][j:min(j+4, n)])
			nb++
		}
	}
	if nb == 0 {
		return
	}
	for k := nb; k%4 != 0; k++ { // a short last pass repeats its last block
		off[2*k], off[2*k+1] = off[2*nb-2], off[2*nb-1]
	}
	stride := (n + 3 + 7) &^ 7 // whole cache lines: transpose8AVX2 fills them
	width := avx2Span / stride &^ 3
	var buf [avx2Span + 7]float64
	t := buf[lineOffset(&buf[0]):][:width*stride]
	for lo := 0; lo < d; lo += width {
		w := min(width, d-lo)
		transposeTile(t, stride, inputs, rlo, lo, w)
		for p := 0; p < nb; p += 4 {
			pairBlocksAVX2((*[16]float64)(acc[4*p:]), t, stride, (*[8]int)(off[2*p:]), w)
		}
	}
	for k := range nb {
		i, j := off[2*k], off[2*k+1]
		copy(dist[i][j:min(j+4, n)], acc[4*k:])
	}
}

// zeroLanes stands in for the inputs past n of a transposed group of eight.
var zeroLanes [avx2Span / 8]float64

// transposeTile sets t[c·stride + j] = inputs[j][lo+c] for c < w and j from
// rlo (rounded down to a line) to n−1, zeros past n; eight inputs by four
// coordinates at a time in assembly, the last w mod 4 coordinates in Go.
func transposeTile(t []float64, stride int, inputs []tensor.Vector, rlo, lo, w int) {
	n, w4 := len(inputs), w&^3
	for j := rlo &^ 7; j < n; j += 8 {
		var q [8][]float64
		for k := range q {
			q[k] = zeroLanes[:w4]
			if j+k < n {
				q[k] = inputs[j+k][lo : lo+w4]
			}
		}
		transpose8AVX2(t[j:], stride, q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7])
	}
	for c := w4; c < w; c++ {
		for j := rlo; j < n; j++ {
			t[c*stride+j] = inputs[j][lo+c]
		}
	}
}

// mirrorUpper copies the upper triangle of dist onto the lower.
func mirrorUpper(dist [][]float64) {
	for i := range dist {
		for j := i + 1; j < len(dist); j++ {
			dist[j][i] = dist[i][j]
		}
	}
}

// squaredDistances returns the full symmetric matrix of pairwise squared
// distances between inputs.
func squaredDistances(inputs []tensor.Vector) [][]float64 {
	dist := newDistMatrix(len(inputs))
	accumulatePairwise(dist, inputs)
	mirrorUpper(dist)
	return dist
}

// deleteRowCol removes input k from a distance matrix, in place, keeping the
// order of the others.
func deleteRowCol(dist [][]float64, k int) [][]float64 {
	dist = slices.Delete(dist, k, k+1)
	for i, row := range dist {
		dist[i] = slices.Delete(row, k, k+1)
	}
	return dist
}
