package gar

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPairwiseMatchesSquaredDistance: every accumulator of the tiled,
// four-pair-interleaved kernel equals tensor.SquaredDistance bit for bit —
// accumulated whole or shard by shard, at dimensions straddling the tile, at
// one worker and at four, on both bodies.
func TestPairwiseMatchesSquaredDistance(t *testing.T) {
	onEachSide(t, testPairwiseMatchesSquaredDistance)
}

func testPairwiseMatchesSquaredDistance(t *testing.T) {
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

// specialInputs are n inputs of dimension d, normal draws salted with the
// values whose handling the two bodies could disagree on: NaNs of either
// sign whose payloads differ between inputs and coordinates (and, at the
// middle coordinate, in every input at once, so both operands of every pair
// are NaNs with distinct payloads), ±Inf, ±0 and subnormals.
func specialInputs(rng *tensor.RNG, n, d int) []tensor.Vector {
	inputs := make([]tensor.Vector, n)
	for j := range inputs {
		v := rng.NormVec(make(tensor.Vector, d), 0, 1)
		for c := range v {
			sign := uint64(c+j) & 1 << 63
			switch (c*31 + j*17) % 97 {
			case 0:
				v[c] = math.Float64frombits(sign | 0x7ff8000000000000 | uint64(c)<<8 | uint64(j))
			case 1:
				v[c] = math.Float64frombits(sign | 0x7ff0000000000000)
			case 2:
				v[c] = math.Float64frombits(sign)
			case 3:
				v[c] = math.Float64frombits(sign | uint64(c+1))
			}
		}
		v[d/2] = math.Float64frombits(uint64(j)&1<<63 | 0x7ff0000000000000 | uint64(j+1)<<20)
		inputs[j] = v
	}
	return inputs
}

// firstNaN is the NaN x86 arithmetic returns when an operand of a − b or
// a + b is NaN: the first NaN operand, quieted. ok is false when neither is.
func firstNaN(a, b float64) (nan float64, ok bool) {
	for _, x := range [2]float64{a, b} {
		if x != x {
			return math.Float64frombits(math.Float64bits(x) | 1<<51), true
		}
	}
	return 0, false
}

// referencePairwise is the distance pass one pair and one coordinate at a
// time, s += δ·δ with δ = xᵢ − xⱼ, its NaN results spelled out: an ordinary
// build of the Go loop keeps the first operand's NaN of both the
// subtraction and the addition, and so must the AVX2 body. The compiler is
// free to swap an addition's operands, though, and does in the Go loop under
// -race and coverage instrumentation, so the Go loop is held to every bit
// except NaN payloads.
func referencePairwise(inputs []tensor.Vector) [][]float64 {
	dist := newDistMatrix(len(inputs))
	for i, a := range inputs {
		for j := i + 1; j < len(inputs); j++ {
			var s float64
			for c, x := range a {
				δ, ok := firstNaN(x, inputs[j][c])
				if !ok {
					δ = x - inputs[j][c]
				}
				if nan, ok := firstNaN(s, δ*δ); ok {
					s = nan
				} else {
					s += δ * δ
				}
			}
			dist[i][j] = s
		}
	}
	return dist
}

// pairwiseOn is the matrix accumulatePairwise leaves on one body, at a
// worker count, fed the coordinates in shards that end at each of cuts.
func pairwiseOn(avx2 bool, workers int, inputs []tensor.Vector, cuts []int) [][]float64 {
	defer setAVX2(avx2)()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	n := len(inputs)
	dist := newDistMatrix(n)
	part := make([]tensor.Vector, n)
	lo := 0
	for _, hi := range cuts {
		for k, v := range inputs {
			part[k] = v[lo:hi]
		}
		accumulatePairwise(dist, part)
		lo = hi
	}
	return dist
}

// randomCuts splits [0, d) at up to k random points.
func randomCuts(rng *tensor.RNG, d, k int) []int {
	cuts := []int{d}
	for range k {
		cuts = append(cuts, 1+rng.Intn(d))
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// checkPairwise compares the upper triangles bit for bit — NaN payloads
// too on the AVX2 body, NaN for NaN on the Go loop (see referencePairwise).
func checkPairwise(t *testing.T, what string, avx2 bool, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			g, w := got[i][j], want[i][j]
			if math.Float64bits(g) != math.Float64bits(w) && (avx2 || g == g || w == w) {
				t.Fatalf("%s, avx2=%v: dist[%d][%d] = %v (%#x), reference %v (%#x)", what, avx2, i, j,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestPairwiseMatchesReference: both bodies leave the reference matrix, for
// every n with an AVX2 body, at dimensions below, at and across its tiles,
// accumulated whole or resumed at random cuts (the shard-by-shard
// contract), at one worker and at two.
func TestPairwiseMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(17)
	for n := 2; n <= maxNet; n++ {
		for _, d := range []int{1, 3, 255, 256, 257, 16_384} {
			inputs := specialInputs(rng, n, d)
			want := referencePairwise(inputs)
			for _, avx2 := range kernelSides() {
				for _, workers := range []int{1, 2} {
					for _, cuts := range [][]int{{d}, randomCuts(rng, d, 3)} {
						what := fmt.Sprintf("n=%d d=%d workers=%d cuts=%v", n, d, workers, cuts)
						checkPairwise(t, what, avx2, pairwiseOn(avx2, workers, inputs, cuts), want)
					}
				}
			}
		}
	}
}

// FuzzPairwiseMatchesReference: on arbitrary bit patterns, for n = 2 … 17
// (17 has no AVX2 body), each body's matrix, resumed at an arbitrary cut,
// is the reference.
func FuzzPairwiseMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%16 + 2
		d := (len(data) - 2) / 8 / n
		if d == 0 {
			return
		}
		inputs := make([]tensor.Vector, n)
		for j := range inputs {
			inputs[j] = make(tensor.Vector, d)
			for c := range inputs[j] {
				inputs[j][c] = math.Float64frombits(binary.LittleEndian.Uint64(data[2+8*(c*n+j):]))
			}
		}
		want := referencePairwise(inputs)
		cuts := slices.Compact([]int{max(1, int(data[1])%(d+1)), d})
		for _, avx2 := range kernelSides() {
			what := fmt.Sprintf("n=%d d=%d cuts=%v", n, d, cuts)
			checkPairwise(t, what, avx2, pairwiseOn(avx2, 1, inputs, cuts), want)
		}
	})
}

// TestKernelsAllocateNothing: at one worker, how a node runs them, the
// distance pass and the median of five allocate nothing on either body —
// the AVX2 tile is a stack array in the kernel's own frame — at the small
// model's 13 × 2,726 and at one 16,384-coordinate shard of the wide one.
func TestKernelsAllocateNothing(t *testing.T) {
	withWorkers(t, 1)
	onEachSide(t, func(t *testing.T) {
		for _, d := range []int{2726, 16_384} {
			inputs := parInputs(13, d)
			dist := newDistMatrix(len(inputs))
			if a := testing.AllocsPerRun(10, func() { accumulatePairwise(dist, inputs) }); a != 0 {
				t.Errorf("accumulatePairwise, 13 × %d: %v allocations a call", d, a)
			}
			dst := make(tensor.Vector, d)
			if a := testing.AllocsPerRun(10, func() { median5Columns(dst, inputs[:5], 0, d) }); a != 0 {
				t.Errorf("median5Columns, 5 × %d: %v allocations a call", d, a)
			}
		}
	})
}
