// Package guanyu is the public deployment API of the GuanYu reproduction —
// "Genuinely Distributed Byzantine Machine Learning" (El-Mhamdi, Guerraoui,
// Guirguis, Hoang, Rouault — PODC 2020): Byzantine-tolerant SGD with
// replicated parameter servers under full network asynchrony.
//
// One functional-options builder describes a deployment; one Runner
// interface executes it under either of the two runtimes:
//
//   - Sim — the deterministic virtual-time engine that regenerates the
//     paper's figures reproducibly on any machine;
//   - Live — one goroutine per node over an asynchronous message transport,
//     in-process channels by default or real TCP sockets with
//     WithTCPTransport.
//
// The minimal deployment, at the paper's scale (6 parameter servers of
// which 1 Byzantine, 18 workers of which 5 Byzantine):
//
//	d, err := guanyu.New(
//		guanyu.WithWorkload(guanyu.ImageWorkload(1200, 1)),
//		guanyu.WithServers(6, 1),
//		guanyu.WithWorkers(18, 5),
//		guanyu.WithRule("multi-krum"),
//		guanyu.WithAttackedWorkers(5, func(int) guanyu.Attack {
//			return guanyu.SignFlip{Scale: 30}
//		}),
//		guanyu.WithSteps(150),
//	)
//	if err != nil { ... }
//	res, err := d.Run(context.Background())
//
// Swapping guanyu.WithRuntime(guanyu.Live) executes the identical
// deployment with real concurrency instead of virtual time. Aggregation
// rules are selected by registry name (see guanyu/gar); Byzantine
// behaviours by value (see Attack and AttackByName).
package guanyu

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compress"
	igar "repro/internal/gar"
	"repro/internal/transport"
)

// Deployment is a fully validated description of one GuanYu (or vanilla
// baseline) run. Build one with New; execute it with Run. A Deployment is
// immutable after New and may be run multiple times.
type Deployment struct {
	workload  Workload
	vanilla   bool
	optimized bool

	numServers, fServers int
	numWorkers, fWorkers int
	qServers, qWorkers   int
	serversSet           bool

	ruleName      string
	paramRuleName string

	serverAttacks map[int]Attack
	workerAttacks map[int]Attack

	steps    int
	batch    int
	lr       Schedule
	momentum float64
	seed     uint64

	evalEvery    int
	evalExamples int
	alignEvery   int
	alignAfter   int
	noExchange   bool

	runtime     Runner
	timeout     time.Duration
	delay       DelayFunc
	faults      *transport.FaultInjector
	suspicion   *Suspicion
	tcp         bool
	shardSize   int
	compression compress.Config
	mailbox     transport.MailboxConfig

	checkpointDir   string
	checkpointEvery int
	rejoinServer    int
	rejoinKill      int
	rejoinSet       bool

	metricsAddr     string
	onMetricsListen func(addr string)

	parallelism    int
	parallelismSet bool
}

// New builds and validates a deployment from the given options. Topology
// bounds (n ≥ 3f+3, 2f+3 ≤ q ≤ n−f per role), rule names and mode
// constraints are all checked here, so a non-nil Deployment is runnable.
func New(opts ...Option) (*Deployment, error) {
	d := &Deployment{
		numServers: PaperServers, fServers: PaperByzServers,
		numWorkers: PaperWorkers, fWorkers: PaperByzWorkers,
		ruleName:      "",
		paramRuleName: "coordinate-median",
		steps:         100,
		batch:         16,
		seed:          1,
		evalEvery:     10,
		runtime:       Sim,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(d); err != nil {
			return nil, fmt.Errorf("guanyu: %w", err)
		}
	}
	if err := d.normalize(); err != nil {
		return nil, fmt.Errorf("guanyu: %w", err)
	}
	return d, nil
}

// normalize applies mode defaults and validates the full configuration.
func (d *Deployment) normalize() error {
	if d.workload.Model == nil || d.workload.Train == nil {
		return fmt.Errorf("a workload is required (use WithWorkload, e.g. ImageWorkload or BlobWorkload)")
	}
	if d.steps <= 0 || d.batch <= 0 {
		return fmt.Errorf("steps and batch must be positive (got %d, %d)", d.steps, d.batch)
	}
	if d.vanilla && !d.serversSet {
		d.numServers, d.fServers = 1, 0
	}
	if d.ruleName == "" {
		if d.vanilla {
			d.ruleName = "mean"
		} else {
			d.ruleName = "multi-krum"
		}
	}
	if _, err := igar.LookupSpec(d.ruleName); err != nil {
		return err
	}
	if _, err := igar.LookupSpec(d.paramRuleName); err != nil {
		return err
	}
	if d.vanilla {
		if d.numServers != 1 {
			return fmt.Errorf("vanilla mode runs exactly 1 server, got %d", d.numServers)
		}
		if d.numWorkers < 1 {
			return fmt.Errorf("vanilla mode needs ≥ 1 worker")
		}
	} else {
		if err := igar.CheckDeployment("server", d.numServers, d.fServers); err != nil {
			return err
		}
		if err := igar.CheckDeployment("worker", d.numWorkers, d.fWorkers); err != nil {
			return err
		}
		if err := igar.CheckQuorum("server", d.numServers, d.fServers, d.quorumServers()); err != nil {
			return err
		}
		if err := igar.CheckQuorum("worker", d.numWorkers, d.fWorkers, d.quorumWorkers()); err != nil {
			return err
		}
	}
	// The selected rules must be legal at the quorums they will aggregate
	// (e.g. Bulyan needs n ≥ 4f+3 inputs, more than the minimum gradient
	// quorum provides) — checked here so a validated Deployment cannot fail
	// its first step on a rule precondition.
	if min, err := igar.MinInputs(d.ruleName, d.fWorkers); err == nil && d.quorumWorkers() < min {
		return fmt.Errorf("rule %q needs ≥ %d inputs with f̄=%d, but the gradient quorum is %d (raise WithQuorums or the worker population)",
			d.ruleName, min, d.fWorkers, d.quorumWorkers())
	}
	if min, err := igar.MinInputs(d.paramRuleName, d.fServers); err == nil && d.quorumServers() < min {
		return fmt.Errorf("parameter rule %q needs ≥ %d inputs with f=%d, but the parameter quorum is %d",
			d.paramRuleName, min, d.fServers, d.quorumServers())
	}
	if len(d.serverAttacks) >= d.numServers {
		return fmt.Errorf("every server is Byzantine; nothing to measure")
	}
	if len(d.workerAttacks) >= d.numWorkers {
		return fmt.Errorf("every worker is Byzantine; nothing to measure")
	}
	for i := range d.serverAttacks {
		if i < 0 || i >= d.numServers {
			return fmt.Errorf("server attack index %d outside population [0, %d)", i, d.numServers)
		}
	}
	for j := range d.workerAttacks {
		if j < 0 || j >= d.numWorkers {
			return fmt.Errorf("worker attack index %d outside population [0, %d)", j, d.numWorkers)
		}
	}
	if d.vanilla && d.runtime == Live {
		return fmt.Errorf("the vanilla baseline is simulation-only; use the default Sim runtime")
	}
	if d.tcp && d.runtime != Live {
		return fmt.Errorf("WithTCPTransport applies to the Live runtime only")
	}
	if d.shardSize > 0 && d.runtime != Live {
		return fmt.Errorf("WithShardSize applies to the Live runtime only (the simulator models the wire in its cost model)")
	}
	if d.delay != nil && (d.runtime != Live || d.tcp) {
		return fmt.Errorf("WithDelay applies to the Live in-process network only (the simulator has its own latency model, real sockets their own latency)")
	}
	if d.mailbox.Bounded() && d.runtime != Live {
		return fmt.Errorf("WithMailbox applies to the Live runtime only (virtual time admits no overflow to bound)")
	}
	if d.metricsAddr != "" && d.runtime != Live {
		return fmt.Errorf("WithMetricsAddr applies to the Live runtime only (the simulator has no wall-clock run to scrape)")
	}
	if d.checkpointDir != "" && d.runtime != Live {
		return fmt.Errorf("WithCheckpointDir applies to the Live runtime only (the simulator has no process state to persist)")
	}
	if d.rejoinSet {
		if d.checkpointDir == "" {
			return fmt.Errorf("WithRejoin requires WithCheckpointDir: the restart leg restores the newest on-disk snapshot")
		}
		if d.tcp {
			return fmt.Errorf("WithRejoin drives the in-process Live network; TCP nodes restart as real processes (see NodeConfig.Rejoin)")
		}
		if d.rejoinServer < 0 || d.rejoinServer >= d.numServers {
			return fmt.Errorf("WithRejoin targets server %d of %d", d.rejoinServer, d.numServers)
		}
		if d.serverAttacks[d.rejoinServer] != nil {
			return fmt.Errorf("WithRejoin victim %d is Byzantine; only honest servers churn", d.rejoinServer)
		}
		if d.rejoinKill <= 0 || d.rejoinKill >= d.steps {
			return fmt.Errorf("WithRejoin kill step %d outside (0, %d)", d.rejoinKill, d.steps)
		}
		if d.checkpointEvery > d.rejoinKill {
			return fmt.Errorf("WithRejoin kill step %d precedes the first checkpoint (cadence %d)", d.rejoinKill, d.checkpointEvery)
		}
	}
	return nil
}

func (d *Deployment) quorumServers() int {
	if d.vanilla {
		return 1
	}
	if d.qServers > 0 {
		return d.qServers
	}
	return igar.MinQuorum(d.fServers)
}

func (d *Deployment) quorumWorkers() int {
	if d.vanilla {
		return d.numWorkers
	}
	if d.qWorkers > 0 {
		return d.qWorkers
	}
	return igar.MinQuorum(d.fWorkers)
}

// gradRule and paramRule resolve the registry names into engine rules.
func (d *Deployment) gradRule() igar.Rule {
	f := d.fWorkers
	r, err := igar.FromName(d.ruleName, f)
	if err != nil {
		// normalize() validated the name; this cannot happen.
		panic(err)
	}
	return r
}

func (d *Deployment) paramRule() igar.Rule {
	r, err := igar.FromName(d.paramRuleName, d.fServers)
	if err != nil {
		panic(err)
	}
	return r
}

// Runtime returns the runner the deployment executes under.
func (d *Deployment) Runtime() Runner { return d.runtime }

// Run executes the deployment under its configured runtime (Sim unless
// WithRuntime changed it). The context cancels the run: the simulator
// checks it between steps, the live runtime tears the network down.
//
// When WithParallelism was given, Run pins the process-wide kernel worker
// count for the duration and restores the previous setting before
// returning; concurrent runs of differently-configured deployments should
// set the knob once via SetParallelism instead.
func (d *Deployment) Run(ctx context.Context) (*Result, error) {
	if d.parallelismSet {
		prev := SetParallelism(d.parallelism)
		defer SetParallelism(prev)
	}
	return d.runtime.Run(ctx, d)
}
