package gar

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestPairwiseMatchesSquaredDistance: every accumulator of the tiled,
// four-pair-interleaved kernel equals tensor.SquaredDistance bit for bit —
// accumulated whole or shard by shard, at dimensions straddling the tile, at
// one worker and at four.
func TestPairwiseMatchesSquaredDistance(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers)
		for _, n := range []int{3, 4, 5, 13, 23} {
			for _, d := range []int{1, pairTile - 1, pairTile, pairTile + 1, 50_001} {
				inputs := parInputs(n, d)
				for _, shard := range []int{d, 777, 16_384} {
					dist := newDistMatrix(n)
					part := make([]tensor.Vector, n)
					for lo := 0; lo < d; lo += shard {
						for k, v := range inputs {
							part[k] = v[lo:min(lo+shard, d)]
						}
						accumulatePairwise(dist, part)
					}
					mirrorUpper(dist)
					for i := range inputs {
						for j := range inputs {
							want := tensor.SquaredDistance(inputs[i], inputs[j])
							if math.Float64bits(dist[i][j]) != math.Float64bits(want) {
								t.Fatalf("workers=%d n=%d d=%d shard=%d: dist[%d][%d] = %v, SquaredDistance %v",
									workers, n, d, shard, i, j, dist[i][j], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestScoresSurviveRowDeletion is the premise of Bulyan's phase 1: deleting
// a vector's row and column from one distance matrix leaves exactly the
// scores KrumScores computes from scratch on the shrunken pool.
func TestScoresSurviveRowDeletion(t *testing.T) {
	const f = 5
	pool := parInputs(23, 300)
	dist := squaredDistances(pool)
	for len(pool) >= 2*f+3 {
		want, err := KrumScores(pool, f)
		if err != nil {
			t.Fatal(err)
		}
		got := scoresFromDist(dist, f)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("pool of %d, score %d: %v from the shrunken matrix, %v rebuilt", len(pool), i, got[i], want[i])
			}
		}
		best := argmin(got)
		pool = append(pool[:best], pool[best+1:]...)
		dist = deleteRowCol(dist, best)
	}
}
