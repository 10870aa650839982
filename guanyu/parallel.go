package guanyu

import "repro/internal/parallel"

// Kernel parallelism. Every hot path of the reproduction — batch gradient
// estimation, the Krum score matrix, the coordinate-wise aggregation
// kernels, and the experiment suite's independent curves — executes through
// a shared, size-aware worker pool (internal/parallel). The worker count is
// a process-wide knob, exposed two ways: SetParallelism and the -parallel
// flag on the commands.
//
// Parallelism is a pure scheduling choice: every parallel kernel decomposes
// into element-independent work or fixed-boundary chunks folded in order, so
// results are bit-identical at every setting — SetParallelism(1) reproduces
// the serial numerics exactly, and the experiment determinism tests assert
// it.

// SetParallelism sets the process-wide worker count and returns the
// previous value. n ≤ 0 restores the default (runtime.NumCPU()); n = 1 is
// fully serial. Results are identical at every setting. Change it between
// runs, not while one is executing.
func SetParallelism(n int) int { return parallel.SetWorkers(n) }
