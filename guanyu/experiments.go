package guanyu

import (
	"io"

	"repro/internal/experiments"
)

// The experiment suite regenerating the paper's evaluation — every table
// and figure of Section 5 plus the design-choice ablations — re-exported so
// benchmark harnesses and the guanyu-bench command drive it through the
// public façade.

// ExperimentScale sizes one experiment run (steps, batch, dataset size,
// seed).
type ExperimentScale = experiments.Scale

// QuickScale is the CI-sized scale; FullScale is closer to the paper's run
// lengths.
var (
	QuickScale = experiments.Quick
	FullScale  = experiments.Full
)

// ExperimentIDs returns the experiment identifiers in presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment executes one experiment at the given scale and writes its
// formatted tables to out.
func RunExperiment(id string, s ExperimentScale, out io.Writer) error {
	return experiments.Run(id, s, out)
}

// Typed experiment entry points, for harnesses that compute metrics from
// the results instead of printing tables.

// Fig3Result holds the five systems' convergence curves at two batch sizes.
type Fig3Result = experiments.Fig3Result

// Fig3 regenerates Figure 3 (convergence of the five systems).
func Fig3(s ExperimentScale) (*Fig3Result, error) { return experiments.Fig3(s) }

// Fig4Result holds the under-attack convergence curves.
type Fig4Result = experiments.Fig4Result

// Fig4 regenerates Figure 4 (Byzantine impact on vanilla vs GuanYu).
func Fig4(s ExperimentScale) (*Fig4Result, error) { return experiments.Fig4(s) }

// Table1 renders the Table-1 model architecture summary.
func Table1() string { return experiments.Table1() }

// Table2 regenerates the Table-2 alignment probes.
func Table2(s ExperimentScale) ([]AlignmentRecord, error) { return experiments.Table2(s) }

// OverheadResult holds the Section-5.3 overhead breakdown.
type OverheadResult = experiments.OverheadResult

// Overhead regenerates the Section-5.3 overhead measurements.
func Overhead(s ExperimentScale) (*OverheadResult, error) { return experiments.Overhead(s) }

// ContractionResult holds the phase-3 ablation drift measurements.
type ContractionResult = experiments.ContractionResult

// Contraction runs the phase-3 (server exchange) ablation.
func Contraction(s ExperimentScale) (*ContractionResult, error) { return experiments.Contraction(s) }

// QuorumSweepRow is one point of the declared-f̄ trade-off sweep.
type QuorumSweepRow = experiments.QuorumSweepRow

// QuorumSweep sweeps the declared Byzantine count f̄.
func QuorumSweep(s ExperimentScale) ([]QuorumSweepRow, error) { return experiments.QuorumSweep(s) }

// GARAblationRow compares server-side aggregation rules under attack.
type GARAblationRow = experiments.GARAblationRow

// GARAblation swaps the server-side rule while keeping 5 Byzantine workers.
func GARAblation(s ExperimentScale) ([]GARAblationRow, error) { return experiments.GARAblation(s) }

// AsyncSweepRow is one point of the latency-tail sweep.
type AsyncSweepRow = experiments.AsyncSweepRow

// AsyncSweep varies the network's latency tail weight.
func AsyncSweep(s ExperimentScale) ([]AsyncSweepRow, error) { return experiments.AsyncSweep(s) }

// NonIIDRow is one point of the federated (label-sharded) sweep.
type NonIIDRow = experiments.NonIIDRow

// NonIID probes behaviour outside the paper's IID assumption.
func NonIID(s ExperimentScale) ([]NonIIDRow, error) { return experiments.NonIID(s) }

// MatrixSpec selects the scenario-matrix grid axes: attack specs, gradient
// GAR names, and fault-profile specs (registry syntax, see AttackByName and
// FaultsByName).
type MatrixSpec = experiments.MatrixSpec

// MatrixResult is the scenario-matrix grid with per-cell accuracy or
// breakdown class.
type MatrixResult = experiments.MatrixResult

// MatrixCell is one scenario-matrix grid point.
type MatrixCell = experiments.MatrixCell

// DefaultMatrixSpec is the standard attack × GAR × fault grid.
func DefaultMatrixSpec() MatrixSpec { return experiments.DefaultMatrixSpec() }

// SmokeMatrixSpec is the smallest grid cell, sized for CI smoke jobs.
func SmokeMatrixSpec() MatrixSpec { return experiments.SmokeMatrixSpec() }

// Matrix runs the scenario-matrix experiment: every (attack, rule, fault,
// churn, compression) cell as an independent deterministic simulation, with
// per-cell breakdowns captured in the result instead of aborting the grid.
// Results are bit-identical at any parallelism and across reruns with the
// same seed.
func Matrix(s ExperimentScale, spec MatrixSpec) (*MatrixResult, error) {
	return experiments.Matrix(s, spec)
}

// ThroughputRow is one (cluster shape, payload dimension) wire measurement.
type ThroughputRow = experiments.ThroughputRow

// Throughput measures the binary wire codec on protocol-sized payloads and
// derives the serialization-bound steps/sec ceiling for representative
// cluster shapes. Timing-based: the absolute numbers are machine-dependent,
// the scaling across shapes is the point.
func Throughput(s ExperimentScale) ([]ThroughputRow, error) { return experiments.Throughput(s) }

// BandwidthRow is one (dimension, scheme) wire-volume measurement: exact
// steady-state bytes per vector under each compression scheme vs raw
// framing, plus advisory codec rates.
type BandwidthRow = experiments.BandwidthRow

// BandwidthCell is one (scheme, rule, attack) convergence outcome under
// the lossy wire.
type BandwidthCell = experiments.BandwidthCell

// BandwidthResult holds the bandwidth experiment's wire rows and
// Fig-4-style convergence grid.
type BandwidthResult = experiments.BandwidthResult

// Bandwidth measures each compression scheme's wire volume and codec rate
// at the harness and paper dimensions, then runs the convergence grid.
// Byte counts are exact and machine-independent; rates are advisory.
func Bandwidth(s ExperimentScale) (*BandwidthResult, error) { return experiments.Bandwidth(s) }

// WireRows measures only the bandwidth experiment's wire rows (no
// convergence grid) — the fast path behind guanyu-bench's -wire-json and
// -wire-check modes.
func WireRows(s ExperimentScale) ([]BandwidthRow, error) { return experiments.WireRows(s) }

// WireBenchJSON serialises bandwidth wire rows for committing as
// BENCH_wire.json (byte counts exact, rates advisory).
func WireBenchJSON(rows []BandwidthRow) ([]byte, error) { return experiments.WireBenchJSON(rows) }

// CheckWireBench verifies freshly measured wire rows against a committed
// BENCH_wire.json: exact byte counts must match; rates are ignored.
func CheckWireBench(committed []byte, rows []BandwidthRow) error {
	return experiments.CheckWireBench(committed, rows)
}

// MemoryRow is one dimension's one-shard-vs-sharded collector measurement.
type MemoryRow = experiments.MemoryRow

// Memory replays one deterministic arrival schedule through one collector
// at two layouts — one shard (whole-vector framing) and chunk-streamed —
// and reports peak buffered bytes, the receive→aggregate overlap, and a
// bit-identity check of the two aggregates. shardSize overrides the
// per-dimension default when positive (the -shard flag on guanyu-bench).
func Memory(s ExperimentScale, shardSize int) ([]MemoryRow, error) {
	return experiments.Memory(s, shardSize)
}

// FormatMemory renders the peak-memory comparison table.
func FormatMemory(rows []MemoryRow) string { return experiments.FormatMemory(rows) }

// ScaleRow is one population point of the scale sweep.
type ScaleRow = experiments.ScaleRow

// ScaleSweepResult is the full scale sweep plus its peak-heap verdict.
type ScaleSweepResult = experiments.ScaleSweepResult

// ScaleSweep runs the node-count sweep enabled by the bounded-mailbox actor
// runtime: the deterministic simulator at populations beyond 200 nodes and
// the live goroutine-per-node runtime at 100, reporting steps/sec and the
// sampled peak heap against a derived O(n·cap·frame) budget. smoke selects
// the CI sizing (64 sim / 24 live); the zero mbox arms the default
// drop-oldest bound on the live rows.
func ScaleSweep(s ExperimentScale, smoke bool, mbox MailboxConfig) (*ScaleSweepResult, error) {
	return experiments.ScaleSweep(s, smoke, mbox)
}

// ScaleBenchJSON serialises scale sweep rows for committing as
// BENCH_scale.json (timings machine-dependent, informational baseline).
func ScaleBenchJSON(r *ScaleSweepResult) ([]byte, error) { return experiments.ScaleBenchJSON(r) }

// SoakResult is one soak run's measurements and verdicts.
type SoakResult = experiments.SoakResult

// SoakOptions selects a soak run's mode: CI sizing, the /metrics listener,
// and the optional kill/restart churn cycle.
type SoakOptions = experiments.SoakOptions

// Soak runs the long-haul live deployment — an equivocating server, the
// "flaky" fault profile on every link, bounded drop-oldest mailboxes — while
// self-scraping its live metrics registry and checking counter
// monotonicity, full liveness, and the scale experiment's peak-heap budget.
// opts.Smoke selects the CI sizing. When opts.MetricsAddr is non-empty a
// /metrics + /healthz listener serves the run's registry and stays up
// opts.Linger after the run finishes, so external scrapers can read the
// final counters. opts.Churn kills one honest server mid-run and restarts
// it from its newest checkpoint with median rejoin, and the verdict then
// also requires the restart to have actually happened.
func Soak(s ExperimentScale, opts SoakOptions) (*SoakResult, error) {
	return experiments.Soak(s, opts)
}
