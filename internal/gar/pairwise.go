package gar

import (
	"slices"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// pairTile coordinates × q̄ = 13 inputs × 8 bytes is 52 KiB: one tile of
// every input stays cache-resident while all its pairs are visited, so the
// n(n−1)/2 distances cost one pass over the inputs instead of one per pair.
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
// bits. Four pairs (i, j … j+3) share the inner loop to overlap their
// latency-bound add chains; each chain is still written acc += d*d, so
// FMA-fusing ports round exactly as SquaredDistance does.
//
// Parallel over rows — the task owning row i extends every (i, j>i) cell,
// so each cell has one writer and the matrix is identical at any
// parallelism. Rows shrink as i grows; grain-1 chunks pulled dynamically
// keep the workers balanced. Small problems, and any call at one worker,
// run inline as one chunk of all rows: one pass over the inputs.
func accumulatePairwise(dist [][]float64, inputs []tensor.Vector) {
	n, d := len(inputs), len(inputs[0])
	rowGrain := 1
	if (n-1)*d < 1<<15 {
		rowGrain = n
	}
	parallel.For(n, rowGrain, func(rlo, rhi int) {
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
	})
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
