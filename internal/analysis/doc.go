// Package analysis is the repo's custom static-analysis suite: four
// vet-style analyzers encoding the load-bearing invariants every
// correctness claim in this reproduction rests on, each of which has
// been violated — and fixed — at least once in the repo's history.
//
//   - cloneboundary: transport.Message values must be Clone()d before
//     crossing a send boundary (goroutine capture, timer callback,
//     channel send) — the race shape fixed in PRs 2, 3 and 7.
//   - nodeterminism: the deterministic packages (gar, compress,
//     tensor, stats, transport, metrics) must not read the wall clock,
//     use unseeded math/rand, or let Go-map iteration order flow into
//     an ordered aggregate — the quorum-order bug fixed in
//     PR 4. The `//lint:allow-clock` / `//lint:allow-maporder` escape
//     hatches mark the sites where wall-clock or unordered iteration
//     is genuinely correct.
//   - boundedalloc: make([]T, n) in wire-decoding paths needs a bound
//     check on n before the allocation — the WIRE.md hardening rule
//     that keeps a 15-byte header from reserving 512 MiB.
//   - noparallelnest: entering a parallel region from inside a
//     parallel worker body silently serialises (the runtime guard
//     degrades, it does not fail); the analyzer rejects the lexical
//     nesting statically.
//
// The suite is deliberately built on the standard library alone
// (go/ast, go/types, go/importer): dependencies are type-checked from
// the build cache's export data via `go list -deps -export -json`, the
// package under analysis from source. Only non-test Go files are
// linted. Analyzers are heuristic where full dataflow would be needed
// (documented per analyzer); the escape-hatch comments exist exactly
// so a reviewed, justified exception is visible in the diff instead of
// living in reviewer memory.
//
// Drive the suite with `go run ./cmd/guanyu-lint ./...` (the CI lint
// job) and see LINT.md for the invariant → analyzer → historical-bug
// mapping.
package analysis
