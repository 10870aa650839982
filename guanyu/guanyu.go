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
// baseline) run. Build one with New; execute it with Run. What New
// validated is the runtime config Run executes, built by the same code. A
// Deployment is immutable after New and may be run multiple times.
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

// New builds and validates a deployment from the given options. It checks
// what only the façade knows — a workload, rule names that resolve, rules
// legal at their quorums, no option the selected runtime would ignore —
// then builds the runtime config Run executes (core.Config for Sim,
// cluster.LiveConfig for Live, through the same builder Run calls) and
// returns that config's own validation error: the paper's bounds (n ≥ 3f+3,
// 2f+3 ≤ q ≤ n−f per role, attacked indices inside each population, an
// honest node in each), steps, batch, checkpoint and rejoin settings. So a
// non-nil Deployment is runnable.
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

// normalize applies mode defaults and checks what no runtime config can —
// the workload, the rule names, each rule's inputs at its quorum, options
// the selected runtime would ignore — then returns the validation error of
// the runtime config Run will execute, built by the same builder.
func (d *Deployment) normalize() error {
	if d.workload.Model == nil || d.workload.Train == nil {
		return fmt.Errorf("a workload is required (use WithWorkload, e.g. ImageWorkload or BlobWorkload)")
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
	grad, err := igar.LookupSpec(d.ruleName)
	if err != nil {
		return err
	}
	param, err := igar.LookupSpec(d.paramRuleName)
	if err != nil {
		return err
	}
	// The selected rules must be legal at the quorums they will aggregate
	// (e.g. Bulyan needs n ≥ 4f+3 inputs, more than the minimum gradient
	// quorum provides) — checked here so a validated Deployment cannot fail
	// its first step on a rule precondition.
	q, qBar := d.quorums()
	if min := grad.MinInputs(d.fWorkers); qBar < min {
		return fmt.Errorf("rule %q needs ≥ %d inputs with f̄=%d, but the gradient quorum is %d (raise WithQuorums or the worker population)",
			d.ruleName, min, d.fWorkers, qBar)
	}
	if min := param.MinInputs(d.fServers); q < min {
		return fmt.Errorf("parameter rule %q needs ≥ %d inputs with f=%d, but the parameter quorum is %d",
			d.paramRuleName, min, d.fServers, q)
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
	if d.delay != nil && d.runtime != Live {
		return fmt.Errorf("WithDelay applies to the Live runtime only (the simulator has its own latency model)")
	}
	if d.mailbox.Bounded() && d.runtime != Live {
		return fmt.Errorf("WithMailbox applies to the Live runtime only (virtual time admits no overflow to bound)")
	}
	if d.metricsAddr != "" && d.runtime != Live {
		return fmt.Errorf("WithMetricsAddr applies to the Live runtime only (the simulator has no wall-clock run to scrape)")
	}
	if (d.checkpointDir != "" || d.rejoinSet) && d.runtime != Live {
		return fmt.Errorf("WithCheckpointDir and WithRejoin apply to the Live runtime only (the simulator has no process state to persist)")
	}
	switch d.runtime.(type) {
	case simRunner:
		cfg := d.simConfig()
		return cfg.Validate()
	case liveRunner:
		cfg := d.liveConfig(nil)
		return cfg.Validate()
	}
	return nil
}

// quorums returns q and q̄ as the runtimes resolve them.
func (d *Deployment) quorums() (q, qBar int) {
	if d.vanilla {
		return 1, d.numWorkers
	}
	if q, qBar = d.qServers, d.qWorkers; q <= 0 {
		q = igar.MinQuorum(d.fServers)
	}
	if qBar <= 0 {
		qBar = igar.MinQuorum(d.fWorkers)
	}
	return q, qBar
}

// gradRule and paramRule resolve the registry names normalize checked into
// engine rules; a negative f is left for the runtime config to refuse.
func (d *Deployment) gradRule() igar.Rule  { return ruleSpec(d.ruleName).New(d.fWorkers) }
func (d *Deployment) paramRule() igar.Rule { return ruleSpec(d.paramRuleName).New(d.fServers) }

func ruleSpec(name string) igar.Spec {
	s, err := igar.LookupSpec(name)
	if err != nil {
		panic(err) // normalize validated the name; this cannot happen
	}
	return s
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
