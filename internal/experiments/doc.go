// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5), plus the systems-side measurements the
// reproduction grew around it: the scenario matrix (attack × GAR × fault
// grid), the wire-throughput ceiling of the binary codec, and the
// collector-memory comparison (whole-vector buffering vs
// chunked shard streaming). Each experiment returns both structured
// results and a formatted text rendering; cmd/guanyu-bench prints them,
// the root benchmark suite wraps them in testing.B, and EXPERIMENTS.md
// (see its "Experiment index" and "Measured column" sections, and the
// paper cross-reference table) records the measured outcomes next to the
// paper's.
//
// # Determinism contract
//
// The independent runs of one experiment — the five systems of Figure 3,
// the rule ablation's six rules, a sweep's points, the matrix's cells —
// execute concurrently on the shared worker pool (bounded by
// guanyu.SetParallelism / the -parallel flag). Every run is a
// self-contained deterministic simulation writing to its own result slot,
// so concurrency never changes any number: simulation-derived results are
// bit-identical across reruns, parallelism settings, and machines for a
// fixed seed. The two exceptions are labelled in their own files: the
// throughput experiment is timing-based by nature (the scaling across
// cluster shapes is the stable part), and the memory experiment's byte counts
// and overlap are deterministic while its wall-clock is not measured at
// all.
package experiments
