package guanyu

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// Runner executes a validated Deployment. The two implementations are Sim
// (deterministic virtual time) and Live (one goroutine per node, real
// concurrency); select one with WithRuntime.
type Runner interface {
	// Run executes the deployment to completion, honouring ctx
	// cancellation.
	Run(ctx context.Context, d *Deployment) (*Result, error)
	// String names the runtime in logs.
	String() string
}

// Sim runs deployments under the deterministic discrete-event engine with
// an explicit virtual clock — the runtime that regenerates the paper's
// accuracy-vs-time figures reproducibly on any machine.
var Sim Runner = simRunner{}

// Live runs deployments with real concurrency: one goroutine per node over
// an asynchronous message transport — in-process channels, or loopback TCP
// sockets with WithTCPTransport.
var Live Runner = liveRunner{}

type simRunner struct{}

func (simRunner) String() string { return "sim" }

// simConfig is the simulator's config for d — the one builder New
// validates and simRunner.Run executes.
func (d *Deployment) simConfig() core.Config {
	mode := core.ModeGuanYu
	if d.vanilla {
		mode = core.ModeVanilla
	}
	return core.Config{
		Mode:          mode,
		Model:         d.workload.Model,
		Train:         d.workload.Train,
		Test:          d.workload.Test,
		NumServers:    d.numServers,
		FServers:      d.fServers,
		NumWorkers:    d.numWorkers,
		FWorkers:      d.fWorkers,
		QuorumServers: d.qServers,
		QuorumWorkers: d.qWorkers,
		ServerAttacks: d.serverAttacks,
		WorkerAttacks: d.workerAttacks,
		Steps:         d.steps,
		Batch:         d.batch,
		LR:            d.lr,
		Rule:          d.gradRule(),
		ParamRule:     d.paramRule(),
		EvalEvery:     d.evalEvery,
		EvalExamples:  d.evalExamples,
		Cost:          core.CostModel{OptimizedRuntime: d.optimized},
		Faults:        d.faults,
		Compression:   d.compression,
		Seed:          d.seed,
	}
}

func (simRunner) Run(ctx context.Context, d *Deployment) (*Result, error) {
	res, err := core.RunContext(ctx, d.simConfig())
	if err != nil {
		return nil, err
	}
	return &Result{
		Runtime:       Sim.String(),
		Curve:         res.Curve,
		Final:         res.Final,
		FinalAccuracy: res.FinalAccuracy,
		VirtualTime:   res.VirtualTime,
		Updates:       res.Updates,
	}, nil
}

// liveConfig is the live launcher's config for d, counting into reg — the
// one builder New validates (with no registry: nothing listens or counts
// yet) and liveRunner.Run executes.
func (d *Deployment) liveConfig(reg *metrics.Registry) cluster.LiveConfig {
	cfg := cluster.LiveConfig{
		Model:         d.workload.Model,
		Train:         d.workload.Train,
		NumServers:    d.numServers,
		FServers:      d.fServers,
		NumWorkers:    d.numWorkers,
		FWorkers:      d.fWorkers,
		QuorumServers: d.qServers,
		QuorumWorkers: d.qWorkers,
		ServerAttacks: d.serverAttacks,
		WorkerAttacks: d.workerAttacks,
		Steps:         d.steps,
		Batch:         d.batch,
		LR:            d.lr,
		Rule:          d.gradRule(),
		ParamRule:     d.paramRule(),
		TCP:           d.tcp,
		Delay:         d.delay,
		Faults:        d.faults,
		Timeout:       d.timeout,
		Seed:          d.seed,
		Suspicion:     d.suspicion,
		ShardSize:     d.shardSize,
		Compression:   d.compression,
		Mailbox:       d.mailbox,
		Metrics:       reg,
	}
	if d.checkpointDir != "" {
		cfg.Checkpoint = &cluster.CheckpointSpec{Dir: d.checkpointDir, Every: d.checkpointEvery}
	}
	if d.rejoinSet {
		cfg.Churn = &cluster.LiveChurn{
			Server:          d.rejoinServer,
			KillAtStep:      d.rejoinKill,
			CheckpointEvery: d.checkpointEvery,
			Dir:             d.checkpointDir,
		}
	}
	return cfg
}

type liveRunner struct{}

func (liveRunner) String() string { return "live" }

func (liveRunner) Run(ctx context.Context, d *Deployment) (*Result, error) {
	start := time.Now()
	// Every live run counts into one registry — under either transport
	// the Result's drop totals are its final reading — and
	// WithMetricsAddr additionally exposes it over HTTP for the run's
	// duration.
	reg := metrics.NewRegistry()
	if d.metricsAddr != "" {
		srv, serr := metrics.Serve(d.metricsAddr, reg, metrics.DefaultStallAfter)
		if serr != nil {
			return nil, serr
		}
		defer srv.Close()
		if d.onMetricsListen != nil {
			d.onMetricsListen(srv.Addr())
		}
	}
	res, err := cluster.RunLiveContext(ctx, d.liveConfig(reg))
	if err != nil {
		return nil, err
	}
	// Every node goroutine and courier flush is done and every endpoint
	// closed: the totals are final, and equal what a last /metrics scrape
	// sums to.
	drops := res.Totals
	out := &Result{
		Runtime:             Live.String(),
		Final:               res.Final,
		ServerParams:        res.ServerParams,
		Updates:             d.steps,
		WallTime:            time.Since(start),
		DroppedFuture:       drops.DroppedFuture,
		DroppedMalformed:    drops.DroppedMalformed,
		ForgedDropped:       drops.ForgedDropped,
		DroppedUnnegotiated: drops.DroppedUnnegotiated,
		DroppedRoster:       drops.DroppedRoster,
		DroppedOverflow:     drops.DroppedOverflow,
		CourierDropped:      drops.CourierDropped,
		DroppedClosed:       drops.DroppedClosed,
		ChurnRestarted:      res.ChurnRestarted,
	}
	if d.workload.Test != nil {
		eval := d.workload.Model.Clone()
		if err := eval.SetParamVector(out.Final); err != nil {
			return nil, err
		}
		out.FinalAccuracy = nn.Accuracy(eval, d.workload.Test.X, d.workload.Test.Labels)
	}
	return out, nil
}
