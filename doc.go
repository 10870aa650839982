// Package repro is a from-scratch Go reproduction of "Genuinely Distributed
// Byzantine Machine Learning" (El-Mhamdi, Guerraoui, Guirguis, Hoang,
// Rouault — PODC 2020): the GuanYu algorithm, the first distributed SGD
// protocol tolerating Byzantine parameter servers as well as Byzantine
// workers under full network asynchrony.
//
// The way in is the public guanyu package: one functional-options builder
// describes a deployment, one Runner interface executes it under the
// deterministic virtual-time simulator (guanyu.Sim, reproduces the paper's
// figures) or with real concurrency (guanyu.Live, in-process or TCP).
// Aggregation rules are chosen by name with guanyu.WithRule and
// guanyu.WithParamRule ("multi-krum", "coordinate-median", ...); an unknown
// name is refused with the list of known ones.
//
//	d, _ := guanyu.New(
//		guanyu.WithWorkload(guanyu.ImageWorkload(1200, 1)),
//		guanyu.WithServers(6, 1),
//		guanyu.WithWorkers(18, 5),
//		guanyu.WithRule("multi-krum"),
//	)
//	res, _ := d.Run(context.Background())
//
// Adversaries and network faults are first-class: Byzantine behaviours —
// including the omniscient colluders (ALIE, inner-product manipulation,
// mimic, anti-Krum) that observe the honest cluster through a ClusterView
// before corrupting — are selected by spec via guanyu.AttackByName
// ("alie:z=1.5"), and guanyu.WithFaults injects seeded message drops,
// duplication, reordering, delay spikes and partitions into either runtime
// (profiles via guanyu.FaultsByName). The scenario-matrix experiment
// (guanyu-bench -exp matrix) runs the attack × rule × fault grid.
//
// Every hot kernel executes on a shared, size-aware worker pool. The worker
// count defaults to runtime.NumCPU() and is controlled by
// guanyu.SetParallelism or the -parallel flag each command accepts; parallelism never changes
// results — chunk boundaries are size-derived and reductions fold in a
// fixed order, so every setting is bit-identical to serial.
//
// Live deployments speak a hand-rolled binary wire protocol: length-
// prefixed frames with a fixed {kind, step, from-len, vec-len} header and
// little-endian float64 payloads — on a little-endian host the vector's
// own memory, so a sender writes a vector to its socket from where it lies
// and a receiver reads it into the vector it keeps (zero allocations in
// steady state — see BenchmarkWireEncodeBinary1756426 and
// BENCH_transport.json), over per-connection
// hello-authenticated TCP so a Byzantine peer cannot forge other senders
// into a quorum. WIRE.md is the byte-level specification.
//
// With guanyu.WithShardSize (the -shard flag on guanyu-train and
// guanyu-node), vectors stream as fixed coordinate shards — chunk frames on
// the wire — and every quorum aggregates incrementally as each shard's
// first-q set completes: peak receive buffering drops from O(n·d) to
// O(q·shard) for the coordinate-wise rules (Multi-Krum's streamer retains
// its q inputs until the post-selection mean, an O(q·d) floor) and
// aggregation overlaps the network receive, with results bit-identical to
// whole-vector framing at any shard size.
//
// The protocol implementation lives under internal/ (see DESIGN.md for the
// system inventory), the runnable entry points under cmd/ and examples/,
// and the benchmark harness regenerating every table and figure of the
// paper's evaluation in bench_test.go at this root — EXPERIMENTS.md indexes
// the experiments, their benchmarks and the paper's expected values.
package repro
