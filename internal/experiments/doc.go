// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5), plus the ablations and extensions the
// reproduction grew around it: the scenario matrix (attack × GAR × fault
// grid) and the bandwidth comparison of the wire compression schemes.
// Each experiment returns both structured results and a formatted text
// rendering; cmd/guanyu-bench prints them, and EXPERIMENTS.md (see its
// "Experiment index" and "Measured column" sections, and the paper
// cross-reference table) records the measured outcomes next to the paper's.
// Systems numbers of the live runtime — steps/s, MB/step, resident memory —
// come from the benchmark module, and codec rates from the root
// BenchmarkWire* rows, not from here: nothing in this package reads the
// clock.
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
// fixed seed, and the bandwidth experiment's byte counts are exact.
package experiments
