// Package parallel is the shared worker-pool subsystem behind every hot
// kernel in this repository: batch gradients, the Krum score matrix, the
// coordinate-wise aggregation kernels (whole-vector and shard-streaming
// forms alike), and the experiment suite all execute through it.
//
// Three properties drive the design:
//
//   - Determinism. Parallel execution must never change results. Every
//     kernel built on this package either decomposes into element-independent
//     work (each output cell written by exactly one chunk, e.g. a coordinate
//     range of a median) or uses fixed, size-derived chunk boundaries with an
//     ordered reduction (e.g. BatchGradient's example chunks). Chunk
//     boundaries handed to For and ForWorker depend only on (n, grain) —
//     never on the worker count — and chunks are pulled dynamically, so
//     scheduling varies run to run while values never do.
//
//   - Cheap dispatch. Workers are persistent goroutines; a region sends one
//     *Runner holding its per-call state (cursor, worker-slot counter,
//     WaitGroup) over a buffered channel to each worker it recruits.
//
//   - Size awareness. Below the grain size a call collapses to a direct
//     inline invocation — tiny inputs pay zero synchronisation overhead, and
//     GrainFor derives grains from per-item work so callers state intent
//     ("about 64k flops per chunk") instead of magic constants.
//
// One region runs at a time: a global guard makes nested or concurrent
// regions execute inline on their caller's goroutine instead of deadlocking
// or oversubscribing the pool. Coarse parallelism therefore wins
// automatically — when the experiment suite fans out whole simulation runs
// via Do, the kernels inside them run serially.
//
// The process-wide parallelism knob is SetWorkers (surfaced publicly as
// guanyu.SetParallelism and the -parallel flag on the commands). SetWorkers(1) restores fully serial execution; by
// construction it produces bit-identical results to any other setting.
package parallel
