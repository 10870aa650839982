// Package gar implements the Gradient Aggregation Rules (GARs) of the paper:
// the coordinate-wise median M used for parameter-vector aggregation, the
// Multi-Krum rule F used for gradient aggregation, the vulnerable arithmetic
// mean baseline, and extension rules (trimmed mean, Bulyan, MDA, geometric
// median).
//
// A GAR is a function (R^d)^n → R^d. A (α,f)-Byzantine-resilient GAR
// tolerates f arbitrary inputs among its n inputs. The package also exposes
// the legality checks the theory requires. The authoritative statement of
// the bounds lives in guanyu/gar/bounds.go; validate.go and the registry
// enforce the same statement:
//
//	deployment populations  n ≥ 3f+3 (servers), n̄ ≥ 3f̄+3 (workers)
//	quorums                 2f+3 ≤ q ≤ n−f per role
//	rule inputs             n ≥ 2f+3 (krum, multi-krum), n ≥ 2f+1
//	                        (trimmed-mean), n ≥ 4f+3 (bulyan), n ≥ f+1 (mda)
//
// # Execution invariants
//
// Two kernels carry the sorting and the distance work, both shaped for the
// paper's small quorums (q = 5 parameter vectors, q̄ = 13 gradients):
//
//   - columns.go: median, trimmed mean and Bulyan's phase 2 are three
//     reductions of one sorted column. For n ≤ 16 inputs a tile of 256
//     coordinates is copied into n contiguous rows and sorted by a
//     comparator network run over whole rows with min/max (Batcher's
//     odd-even merge, pruned to the rows the reduction reads). The
//     gather-and-sort.Float64s column stays as the reference: it serves
//     n > 16, and any coordinate whose reduction came out 0 or NaN — the
//     only outcomes the two orders can differ on (min/max put −0 before +0
//     and spread a NaN to every row; the sort keeps ±0 in input order and
//     NaNs first, and a signed zero cannot survive a sum with a non-zero
//     value) — so every output bit equals gather-and-sort's.
//   - pairwise.go: Krum, Multi-Krum (whole and streamed), Bulyan and MDA
//     get their squared distances from one accumulator kernel that visits
//     the inputs in cache-resident tiles, four pairs per inner loop, each
//     pair's sum strictly in coordinate order — tensor.SquaredDistance's
//     additions, resumable at shard boundaries.
//
// Both execute through internal/parallel, and every decomposition is
// element-independent (each output cell owned by one chunk) or an ordered
// fold, so results are bit-identical at any parallelism — including fully
// serial.
//
// Rules implementing StreamingRule (mean, median, trimmed-mean,
// multi-krum) additionally aggregate shard-by-shard — how the node loops
// reduce every quorum, whole vectors being the one-shard case (see
// stream.go and transport.Collector; StreamerFor adapts the other rules to
// one shard): folding the shards
// of a fixed input set — in any arrival order, at any shard size —
// produces the exact bits of the whole-vector Aggregate on that set.
// Coordinate-wise rules get this by construction; Multi-Krum defers
// out-of-order shards so that the whole-vector path's own distance kernel
// sees the coordinates in order, and shares its scoring, selection and
// averaging.
package gar
