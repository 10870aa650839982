package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gar"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The scenario matrix is the adversarial testbed the single hand-picked
// runs of Figures 3/4 are not: a full attack × aggregation-rule ×
// fault-profile grid, every cell an independent deterministic simulation.
// It answers, in one table, which rules hold up under which adaptive
// adversaries while the network itself misbehaves — and shows the
// breakdowns (mean under any collusion; quorum liveness under partitions)
// next to the survivals.

// MatrixSpec selects the grid axes. Attacks and Faults are specs in the
// registry syntax ("alie", "alie:z=1.2", "drop:p=0.05"); Rules are
// gradient-GAR registry names.
type MatrixSpec struct {
	// Attacks arm the Byzantine workers, one grid row per spec; "none"
	// arms none (the attack-free baseline, f̄ still declared).
	Attacks []string
	// Rules are the server-side gradient aggregation rules under test.
	Rules []string
	// Faults are the network fault profiles applied to honest traffic.
	Faults []string
	// Churn are the server membership-churn scenarios (core.ChurnPreset
	// names — "none", "crash", "rolling", "joinleave" — or explicit
	// "kind:server@step" schedules); empty means {"none"}. Each scenario
	// multiplies the grid: the churn band answers whether the rules that
	// survive an adversary also survive servers crashing, recovering and
	// changing roster mid-run.
	Churn []string
	// Compress are the wire compression specs applied to honest traffic
	// ("none", "float32", "topk:k=F"); empty means
	// {"none"}. Each spec multiplies the grid: the matrix answers whether a
	// lossy wire changes which rules survive which adversaries.
	Compress []string
	// ByzWorkers is the number of actually-Byzantine workers (and the
	// declared f̄). Default 5 — the paper's Byzantine worker count.
	ByzWorkers int
}

// DefaultMatrixSpec is the standard grid: the strongest omniscient attacks
// plus a stealth server-style behaviour, the headline rules including the
// vulnerable mean baseline, and representative fault profiles.
func DefaultMatrixSpec() MatrixSpec {
	return MatrixSpec{
		Attacks: []string{"signflip:scale=30", "alie:z=1.5", "ipm:eps=3", "antikrum", "mimic", "drift:delta=0.05"},
		Rules:   []string{"mean", "coordinate-median", "multi-krum"},
		// The bisection partition deterministically starves the
		// bulk-synchronous quorums — its column is the liveness-breakdown
		// row of the table, not a survivable profile.
		Faults: []string{"none", "drop:p=0.01", "delay:p=0.2,spike=0.002", "partition:every=25,for=2"},
		// The churn band: rolling restarts, a crash that recovers via the
		// median rejoin, and an elastic join/leave roster — each crossed
		// with every fault profile, so "join/leave under partition" gets a
		// cell of its own.
		Churn: []string{"none", "crash", "rolling", "joinleave"},
		// The exact wire and the most aggressive compression bracket the
		// grid; the intermediate schemes get their own experiment
		// (bandwidth).
		Compress: []string{"none", "topk:k=0.01"},
	}
}

// SmokeMatrixSpec is the smallest useful cell — one attack, one rule, one
// fault profile — sized for a CI smoke job.
func SmokeMatrixSpec() MatrixSpec {
	return MatrixSpec{
		Attacks:  []string{"alie"},
		Rules:    []string{"multi-krum"},
		Faults:   []string{"drop:p=0.02"},
		Compress: []string{"none", "topk:k=0.01"},
		// One crash-recovery cell next to the churn-free baseline; the
		// longer rolling/joinleave scenarios need more steps than the smoke
		// scale runs.
		Churn: []string{"none", "crash"},
	}
}

// compressAxis is the spec's compression axis, defaulting to the exact wire.
func (m MatrixSpec) compressAxis() []string {
	if len(m.Compress) == 0 {
		return []string{"none"}
	}
	return m.Compress
}

// churnAxis is the spec's churn axis, defaulting to a stable membership.
func (m MatrixSpec) churnAxis() []string {
	if len(m.Churn) == 0 {
		return []string{"none"}
	}
	return m.Churn
}

func (m MatrixSpec) byzWorkers() int {
	if m.ByzWorkers > 0 {
		return m.ByzWorkers
	}
	return core.PaperByzWorkers
}

// MatrixCell is one grid point's outcome.
type MatrixCell struct {
	// Attack, Rule, Fault, Churn and Compress identify the cell.
	Attack, Rule, Fault, Churn, Compress string
	// FinalAccuracy is the run's final test accuracy (0 when Failed).
	FinalAccuracy float64
	// Failed is empty for a completed run, otherwise the breakdown class:
	// "no-quorum" (faults or silence starved a quorum — a liveness
	// breakdown), "non-finite" (the aggregate was poisoned — a safety
	// breakdown), or "error".
	Failed string
}

// MatrixResult is the full grid.
type MatrixResult struct {
	// Spec echoes the grid axes.
	Spec MatrixSpec
	// Cells holds one entry per (fault, churn, compress, attack, rule),
	// fault-major in the spec's order.
	Cells []MatrixCell
}

// Matrix runs the scenario grid. Cells execute concurrently on the shared
// worker pool; each cell is a self-contained deterministic simulation
// (workload, attacks and fault schedule all derived from s.Seed), and
// per-cell failures are captured as breakdown entries rather than aborting
// the grid — so the result is bit-identical at any parallelism and across
// reruns with the same seed.
//
// The grid runs on the fast Blob workload: the point is scenario coverage,
// not absolute accuracy, and the ~50× cheaper task is what makes a
// 50-cell grid affordable everywhere the suite runs.
func Matrix(s Scale, spec MatrixSpec) (*MatrixResult, error) {
	if len(spec.Attacks) == 0 || len(spec.Rules) == 0 || len(spec.Faults) == 0 {
		return nil, fmt.Errorf("matrix: empty grid axis (attacks=%d rules=%d faults=%d)",
			len(spec.Attacks), len(spec.Rules), len(spec.Faults))
	}
	res := &MatrixResult{Spec: spec}
	for _, fault := range spec.Faults {
		for _, churn := range spec.churnAxis() {
			for _, comp := range spec.compressAxis() {
				for _, att := range spec.Attacks {
					for _, rule := range spec.Rules {
						res.Cells = append(res.Cells, MatrixCell{
							Attack: att, Rule: rule, Fault: fault, Churn: churn, Compress: comp})
					}
				}
			}
		}
	}

	// Resolve every spec up front so a typo fails the experiment loudly
	// instead of surfacing as a grid of "error" cells.
	for _, a := range spec.Attacks {
		if _, err := matrixAttack(a, s.Seed); err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
	}
	f := spec.byzWorkers()
	for _, r := range spec.Rules {
		if _, err := gar.FromName(r, f); err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
	}
	for _, fs := range spec.Faults {
		if _, err := faultFromSpec(fs, s.Seed); err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
	}
	for _, cs := range spec.compressAxis() {
		if _, err := compress.ParseSpec(cs); err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
	}
	for _, cs := range spec.churnAxis() {
		plan, err := matrixChurn(cs, s)
		if err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
		if err := plan.Validate(core.PaperServers, s.Steps, gar.MinQuorum(0), nil); err != nil {
			return nil, fmt.Errorf("matrix: churn %q: %w", cs, err)
		}
	}

	tasks := make([]func() error, len(res.Cells))
	for i := range res.Cells {
		cell := &res.Cells[i]
		tasks[i] = func() error {
			runMatrixCell(s, f, cell)
			return nil // breakdowns are results, not errors
		}
	}
	if err := parallel.Do(tasks...); err != nil {
		return nil, err
	}
	return res, nil
}

// matrixChurn expands one churn-axis value against the matrix deployment:
// the grid's servers are all honest with the slack f=0 quorum (q=3 of 6),
// which is exactly the margin that absorbs one server down at a time.
func matrixChurn(spec string, s Scale) (*core.ChurnPlan, error) {
	return core.ChurnPreset(spec, core.PaperServers, 1, s.Steps, nil)
}

// matrixAttack resolves one attack-axis value; "none" arms no worker.
func matrixAttack(spec string, seed uint64) (func(i int) attack.Attack, error) {
	if spec == "none" {
		return nil, nil
	}
	return attack.FromSpec(spec, seed)
}

// runMatrixCell executes one grid point, writing the outcome into cell.
func runMatrixCell(s Scale, byzWorkers int, cell *MatrixCell) {
	mkAttack, _ := matrixAttack(cell.Attack, s.Seed+500)
	rule, _ := gar.FromName(cell.Rule, byzWorkers)
	faults, _ := faultFromSpec(cell.Fault, s.Seed+900)
	comp, _ := compress.ParseSpec(cell.Compress)
	churn, _ := matrixChurn(cell.Churn, s)

	w := core.BlobWorkload(s.Examples, s.Seed)
	cfg := core.Config{
		Mode:  core.ModeGuanYu,
		Model: w.Model, Train: w.Train, Test: w.Test,
		// All servers honest and declared so (f=0, q=3 of 6): the worker
		// axis carries the attacks, and the slack quorum is what lets the
		// drop/partition profiles probe degradation instead of tripping
		// liveness immediately.
		NumServers: core.PaperServers, FServers: 0,
		NumWorkers: core.PaperWorkers, FWorkers: byzWorkers,
		Steps: s.Steps, Batch: s.SmallBatch,
		Rule:        rule,
		Faults:      transport.NewFaultInjector(faults),
		Compression: comp,
		Churn:       churn,
		Seed:        s.Seed,
	}
	if mkAttack != nil {
		cfg = core.WithByzantineWorkers(cfg, byzWorkers, mkAttack)
	}

	res, err := core.Run(cfg)
	switch {
	case err != nil && strings.Contains(err.Error(), "quorum"):
		cell.Failed = "no-quorum"
	case err != nil:
		cell.Failed = "error"
	case !tensor.IsFinite(res.Final):
		cell.Failed = "non-finite"
	default:
		cell.FinalAccuracy = res.FinalAccuracy
	}
}

// faultFromSpec resolves a fault-profile spec string.
func faultFromSpec(spec string, seed uint64) (transport.FaultConfig, error) {
	name, params, err := attack.ParseSpec(spec)
	if err != nil {
		return transport.FaultConfig{}, err
	}
	return transport.FaultByName(name, params, seed)
}

// Format renders the grid as one attack × rule table per (fault profile,
// compression scheme) pair.
func (r *MatrixResult) Format() string {
	var b strings.Builder
	b.WriteString("# Scenario matrix: final accuracy by attack × GAR × fault profile × churn × compression\n")
	fmt.Fprintf(&b, "(%d byz workers of %d; %d servers, all honest; breakdowns: no-quorum = liveness, non-finite = safety)\n",
		r.Spec.byzWorkers(), core.PaperWorkers, core.PaperServers)
	idx := 0
	for _, fault := range r.Spec.Faults {
		for _, churn := range r.Spec.churnAxis() {
			for _, comp := range r.Spec.compressAxis() {
				fmt.Fprintf(&b, "\n## faults: %s, churn: %s, compress: %s\n", fault, churn, comp)
				fmt.Fprintf(&b, "%-22s", "attack")
				for _, rule := range r.Spec.Rules {
					fmt.Fprintf(&b, " %-18s", rule)
				}
				b.WriteByte('\n')
				for range r.Spec.Attacks {
					fmt.Fprintf(&b, "%-22s", r.Cells[idx].Attack)
					for range r.Spec.Rules {
						c := r.Cells[idx]
						if c.Failed != "" {
							fmt.Fprintf(&b, " %-18s", "break:"+c.Failed)
						} else {
							fmt.Fprintf(&b, " %-18.4f", c.FinalAccuracy)
						}
						idx++
					}
					b.WriteByte('\n')
				}
			}
		}
	}
	return b.String()
}
