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
// The O(n²·d) Krum score matrix and the coordinate loops of the median,
// trimmed-mean and Bulyan kernels execute through internal/parallel. Every
// decomposition is element-independent (each output cell owned by one
// chunk) or an ordered fold, so results are bit-identical at any
// parallelism — including fully serial.
//
// Rules implementing StreamingRule (mean, median, trimmed-mean,
// multi-krum) additionally aggregate shard-by-shard — how the node loops
// reduce every quorum, whole vectors being the one-shard case (see
// stream.go and transport.Collector; StreamerFor adapts the other rules to
// one shard): folding the shards
// of a fixed input set — in any arrival order, at any shard size —
// produces the exact bits of the whole-vector Aggregate on that set.
// Coordinate-wise rules get this by construction; Multi-Krum extends each
// pairwise distance accumulator strictly in coordinate order, the serial
// whole-vector summation merely paused at shard boundaries, and shares
// the whole path's scoring, selection and averaging kernels.
package gar
