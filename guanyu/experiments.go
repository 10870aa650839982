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

// BandwidthRow is one (dimension, scheme) wire-volume measurement: exact
// steady-state bytes per vector under each compression scheme vs raw
// framing, plus advisory codec rates.
type BandwidthRow = experiments.BandwidthRow

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
