// Package core is the paper's primary contribution assembled into a usable
// library: configuration and validation of GuanYu deployments, the
// deterministic virtual-time training engine that regenerates every figure
// and table of the evaluation, and presets for the paper's three systems
// (vanilla TF, vanilla GuanYu, Byzantine-resilient GuanYu).
//
// Two runtimes execute the same protocol:
//
//   - internal/cluster runs it live — one goroutine per node over an
//     asynchronous message transport (in-process or TCP);
//   - this package runs it under a deterministic discrete-event simulation
//     with an explicit virtual clock, which is what produces reproducible
//     accuracy-vs-time curves (Figures 3b/3d) on any machine.
package core

import (
	"fmt"
	"maps"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/transport"
)

// Mode selects the deployment family.
type Mode int

// Deployment modes.
const (
	// ModeVanilla is the single-parameter-server baseline using plain mean
	// aggregation over all workers ("vanilla TF" / "vanilla GuanYu" in the
	// paper, depending on CostModel.OptimizedRuntime).
	ModeVanilla Mode = iota + 1
	// ModeGuanYu is the full Byzantine-resilient protocol with replicated
	// servers, quorums, Multi-Krum and median contraction.
	ModeGuanYu
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeGuanYu:
		return "guanyu"
	default:
		return "unknown"
	}
}

// CostModel prices the virtual clock. All times are virtual seconds. The
// defaults are loosely calibrated so that the relative overheads of the
// paper's Section 5.3 emerge from structure (replication, quorums, robust
// aggregation, serialization) rather than from hand-tuned curves.
type CostModel struct {
	// GradBase is the fixed cost of one gradient computation.
	GradBase float64
	// GradPerExample is the additional cost per mini-batch example.
	GradPerExample float64
	// AggPerVector is the cost per input vector of a linear-time
	// aggregation (mean). The median is charged 2× this per vector, and
	// the Krum family q× per vector (its score computation is quadratic).
	AggPerVector float64
	// UpdateTime is the cost of applying one parameter update.
	UpdateTime float64
	// SerializeOverhead is the per-message cost of leaving the optimized
	// runtime: tensor→buffer conversion, framing, context switches. This is
	// the paper's "TensorFlow low-level API" overhead; it applies to every
	// message endpoint crossing unless OptimizedRuntime is set.
	SerializeOverhead float64
	// OptimizedRuntime models the vanilla TensorFlow distributed runtime:
	// serialization cost is absorbed by the framework (set only for the
	// "vanilla TF" baseline).
	OptimizedRuntime bool
	// Latency samples per-message network delays. Required.
	Latency *transport.LatencyModel
}

// DefaultCostModel returns the harness's standard pricing: a 10 GbE-class
// network and compute costs sized for the tiny CNN. The *structure* of the
// overheads (which deployments pay serialization, robust aggregation,
// replication and quorum waits) is fixed by the protocol; the constants
// below are calibrated once so the headline ratios land near the paper's
// measurements (vanilla GuanYu ≈ 65% slower than vanilla TF to a fixed
// accuracy; Byzantine deployment ≤ ~33% over vanilla GuanYu). See the
// "Cost-model calibration" section of EXPERIMENTS.md.
func DefaultCostModel(seed uint64) CostModel {
	return CostModel{
		GradBase:          2e-3,
		GradPerExample:    1.2e-4,
		AggPerVector:      8e-6,
		UpdateTime:        2e-4,
		SerializeOverhead: 8e-4,
		Latency:           transport.NewLatencyModel(150e-6, 0.4, 1.25e9, seed),
	}
}

// serOverhead returns the per-crossing serialization cost.
func (c CostModel) serOverhead() float64 {
	if c.OptimizedRuntime {
		return 0
	}
	return c.SerializeOverhead
}

// aggTime prices one aggregation of n vectors under the given rule.
func (c CostModel) aggTime(r gar.Rule, n int) float64 {
	switch r.(type) {
	case gar.Mean:
		return c.AggPerVector * float64(n)
	case gar.Median, gar.TrimmedMean:
		return 2 * c.AggPerVector * float64(n)
	case gar.Krum, gar.MultiKrum, gar.Bulyan, gar.GeoMed, gar.MDA:
		return c.AggPerVector * float64(n) * float64(n)
	default:
		return c.AggPerVector * float64(n)
	}
}

// Config fully describes one experiment run.
type Config struct {
	// Mode selects vanilla or GuanYu topology.
	Mode Mode
	// Model is the template network; cloned per worker.
	Model *nn.Sequential
	// Train and Test are the workload.
	Train, Test *dataset.Dataset
	// WorkerShards optionally assigns worker j the shard
	// WorkerShards[j mod len(WorkerShards)] instead of sampling from the
	// full Train set — the federated / non-IID setting (see
	// dataset.ShardByLabel). The paper's theory assumes IID workers; this
	// knob probes behaviour outside it.
	WorkerShards []*dataset.Dataset

	// NumServers/FServers are n and declared f; NumWorkers/FWorkers are n̄
	// and declared f̄. Vanilla mode forces NumServers=1.
	NumServers, FServers int
	NumWorkers, FWorkers int
	// QuorumServers (q) and QuorumWorkers (q̄) default to the minimum legal
	// 2f+3 when 0.
	QuorumServers, QuorumWorkers int

	// ServerAttacks and WorkerAttacks assign behaviours to the
	// actually-Byzantine nodes (indices into the populations).
	ServerAttacks map[int]attack.Attack
	WorkerAttacks map[int]attack.Attack

	// Steps, Batch and LR drive training. LR nil defaults to 0.05/(1+t/300).
	Steps int
	Batch int
	LR    func(step int) float64
	// Momentum, when positive, enables heavy-ball momentum on each server's
	// local update: v ← β·v + F(...); θ ← θ − η_t·v. This is an extension
	// beyond the paper's plain-SGD update (each server keeps its own
	// velocity; the contraction round still operates on θ only).
	Momentum float64

	// Rule aggregates gradients (default MultiKrum{F: FWorkers} in GuanYu
	// mode, Mean in vanilla). ParamRule aggregates parameter vectors
	// (default Median).
	Rule      gar.Rule
	ParamRule gar.Rule

	// DisableServerExchange skips phase 3 (ablation of the contraction
	// round).
	DisableServerExchange bool

	// EvalEvery controls accuracy sampling (default 10); EvalExamples
	// limits the test subset per evaluation (default 256, 0 = all).
	EvalEvery    int
	EvalExamples int
	// AlignEvery enables the Table-2 alignment probe at the given period
	// (0 = off). AlignAfter discards records before that step ("after some
	// large step number" in the paper).
	AlignEvery int
	AlignAfter int

	// Cost prices the virtual clock; zero value gets DefaultCostModel(Seed).
	Cost CostModel

	// Faults optionally injects seeded network faults into honest traffic:
	// drops and partition cuts become +Inf arrivals the quorum discipline
	// must absorb, delay spikes push arrivals out. Byzantine messages are
	// exempt (the adversary's covert network is ideal by assumption). Nil
	// injects nothing.
	Faults *transport.FaultInjector

	// Compression applies the wire compression schemes to honest traffic:
	// every honest payload is round-tripped through the internal/compress
	// codec of its directed link before the receiver sees it, so the
	// simulator trains on exactly the lossy values a live cluster would,
	// and message bytes in the latency model shrink accordingly. Byzantine
	// payloads are exempt, mirroring the fault injector: compressing the
	// adversary's traffic would perturb its chosen attack vectors and
	// weaken it. The zero value transmits exact float64 payloads.
	Compression compress.Config

	// Churn, when non-nil, applies a deterministic schedule of membership
	// changes to the honest servers at step boundaries: crashes (silence,
	// frozen state), recoveries and joins (adopt the coordinate-wise median
	// of the live honest servers — the simulator's analogue of the live
	// cluster's median rejoin), and leaves. Validated against the quorum
	// bound so every boundary keeps at least q live honest servers; GuanYu
	// mode only. See ChurnPreset for the named scenarios.
	Churn *ChurnPlan

	// Seed drives every generator in the run.
	Seed uint64
}

// Validate checks the configuration: in GuanYu mode each role against the
// paper's legality section (gar.CheckRole); in vanilla mode the baseline's
// one honest server and its attack map, the only bounds it has.
func (c *Config) Validate() error {
	if c.Model == nil || c.Train == nil {
		return fmt.Errorf("core: Model and Train are required")
	}
	if c.Steps <= 0 || c.Batch <= 0 {
		return fmt.Errorf("core: Steps and Batch must be positive")
	}
	switch c.Mode {
	case ModeVanilla:
		if c.NumServers != 1 || len(c.ServerAttacks) > 0 {
			return fmt.Errorf("core: vanilla mode runs exactly 1 honest server, got %d with %d attacked", c.NumServers, len(c.ServerAttacks))
		}
		for j := range c.WorkerAttacks {
			if j < 0 || j >= c.NumWorkers {
				return fmt.Errorf("core: vanilla worker attack index %d outside [0, %d)", j, c.NumWorkers)
			}
		}
		if len(c.WorkerAttacks) >= c.NumWorkers {
			return fmt.Errorf("core: vanilla mode needs an honest worker")
		}
	case ModeGuanYu:
		if err := gar.CheckRole("server", c.NumServers, c.FServers, c.QuorumServers, maps.Keys(c.ServerAttacks)); err != nil {
			return err
		}
		if err := gar.CheckRole("worker", c.NumWorkers, c.FWorkers, c.QuorumWorkers, maps.Keys(c.WorkerAttacks)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	if err := c.Compression.Validate(); err != nil {
		return err
	}
	if c.Churn != nil {
		if c.Mode != ModeGuanYu {
			return fmt.Errorf("core: churn requires GuanYu mode (a vanilla deployment has no quorum margin to crash into)")
		}
		if err := c.Churn.Validate(c.NumServers, c.Steps, c.quorumServers(), c.ServerAttacks); err != nil {
			return err
		}
	}
	return nil
}

func (c *Config) quorumServers() int {
	if c.Mode == ModeVanilla {
		return 1
	}
	if c.QuorumServers > 0 {
		return c.QuorumServers
	}
	return gar.MinQuorum(c.FServers)
}

func (c *Config) quorumWorkers() int {
	if c.Mode == ModeVanilla {
		// Vanilla synchronous training waits for every worker.
		return c.NumWorkers
	}
	if c.QuorumWorkers > 0 {
		return c.QuorumWorkers
	}
	return gar.MinQuorum(c.FWorkers)
}

func (c *Config) lr() func(int) float64 {
	if c.LR != nil {
		return c.LR
	}
	return func(t int) float64 { return 0.05 / (1 + float64(t)/300) }
}

func (c *Config) gradRule() gar.Rule {
	if c.Rule != nil {
		return c.Rule
	}
	if c.Mode == ModeVanilla {
		return gar.Mean{}
	}
	return gar.MultiKrum{F: c.FWorkers}
}

func (c *Config) paramRule() gar.Rule {
	if c.ParamRule != nil {
		return c.ParamRule
	}
	return gar.Median{}
}

func (c *Config) evalEvery() int {
	if c.EvalEvery > 0 {
		return c.EvalEvery
	}
	return 10
}

func (c *Config) cost() CostModel {
	if c.Cost.Latency == nil {
		cm := DefaultCostModel(c.Seed + 7777)
		cm.OptimizedRuntime = c.Cost.OptimizedRuntime
		return cm
	}
	return c.Cost
}
