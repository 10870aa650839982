package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"repro/guanyu"
	"repro/internal/core"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	spec    spec
	seed    uint64
	seconds float64
	trace   bool
	outDir  string    // spans and scratch files go here
	log     io.Writer // human-readable tables

	// setupRepeats is how many times the run sets the workload up before
	// its first round; a third as many set-ups are timed again before every
	// later untraced round, so the samples span the whole run and setup_s
	// (fastTime over them) is decided neither by one slow page fault nor by
	// what the host was doing in the run's first half second. unitTime is
	// how long each unit cost is sampled for. Tests shrink both.
	setupRepeats int
	unitTime     time.Duration
}

// The sampling effort of a measured (non-test) run.
const (
	defaultSetupRepeats = 9
	defaultUnitTime     = 250 * time.Millisecond
)

// timeSetups sets the workload up n times — everything between process start
// and Deployment.Run: data synthesis, model initialisation, deployment
// validation — and returns the last workload and every set-up's seconds.
func timeSetups(s spec, seed uint64, n int) (w guanyu.Workload, seconds []float64, err error) {
	for i := 0; i < n; i++ {
		start := time.Now()
		w = s.newWorkload(seed)
		if _, err := s.deployment(w, seed, 0); err != nil {
			return w, nil, fmt.Errorf("set-up: %w", err)
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return w, seconds, nil
}

// chain trains one model over successive rounds and accounts for them.
type chain struct {
	cfg     runConfig
	w       guanyu.Workload
	round   int
	started time.Time

	attempted, failed int
	problems          []string

	spread          float64 // largest honest-server spread of any round
	updatesToTarget float64 // first chained curve point at the paper's target; 0 = not reached

	// The fixed-step-count outputs, read after round minRounds.
	accuracy        float64
	checkpointFinal []float64
}

// next runs one round with run and returns its result, or nil when the round
// failed (its steps are then booked as failed and the model is left as it
// was).
func (c *chain) next(ctx context.Context, run runner) *roundResult {
	s := c.cfg.spec
	c.attempted += s.steps
	round := c.round
	c.round++
	r, err := run(ctx, s, c.w, c.cfg.seed+uint64(round), round)
	if err == nil {
		var spread float64
		if spread, err = checkRound(r); err == nil {
			c.spread = max(c.spread, spread)
			err = c.w.Model.SetParamVector(r.final)
		}
	}
	if err != nil {
		c.failed += s.steps
		c.problems = append(c.problems, fmt.Sprintf("round %d: %v", round, err))
		return nil
	}
	fmt.Fprintf(c.cfg.log, "%s round %d: %d steps in %.3f s, accuracy %.3f\n", s.name, round, s.steps, r.wall.Seconds(), r.accuracy)
	if c.updatesToTarget == 0 && r.curve != nil {
		for _, p := range r.curve.Points {
			if p.Accuracy >= core.PaperAccuracyTarget {
				c.updatesToTarget = float64(round*s.steps + p.Step)
				break
			}
		}
	}
	if c.round == s.minRounds {
		c.accuracy, c.checkpointFinal = r.accuracy, r.final
		if c.accuracy < s.accuracyFloor {
			c.problems = append(c.problems, fmt.Sprintf("accuracy %.3f after %d steps is under the floor %.2f",
				c.accuracy, c.round*s.steps, s.accuracyFloor))
		}
	}
	return r
}

// rates are the per-round end-to-end samples of one run.
type rates struct {
	stepsPerS, cpuPerStep, allocPerStep, gcPerStep, gcPauseMSPerStep []float64
}

func (x *rates) add(s spec, r *roundResult) {
	n := float64(s.steps)
	x.stepsPerS = append(x.stepsPerS, n/r.wall.Seconds())
	x.cpuPerStep = append(x.cpuPerStep, r.cpu.Seconds()/n)
	x.allocPerStep = append(x.allocPerStep, r.allocMB/n)
	x.gcPerStep = append(x.gcPerStep, float64(r.gcCount)/n)
	x.gcPauseMSPerStep = append(x.gcPauseMSPerStep, ms(r.gcPause)/n)
}

// runWorkload executes one run and returns the result line. An error means
// the run produced nothing to report.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	s := cfg.spec

	w, setups, err := timeSetups(s, cfg.seed, cfg.setupRepeats)
	if err != nil {
		return nil, err
	}

	c := &chain{cfg: cfg, w: w, started: time.Now()}
	budgetLeft := func() bool { return time.Since(c.started).Seconds() < cfg.seconds }
	var untraced rates
	for c.round < s.minRounds || (!cfg.trace && budgetLeft()) {
		if ctx.Err() != nil {
			break
		}
		if !cfg.trace && c.round > 0 {
			_, again, err := timeSetups(s, cfg.seed, cfg.setupRepeats/3)
			if err != nil {
				return nil, err
			}
			setups = append(setups, again...)
		}
		if r := c.next(ctx, runFacade); r != nil {
			untraced.add(s, r)
		}
	}
	if len(untraced.stepsPerS) == 0 {
		return nil, fmt.Errorf("no round completed: %v", c.problems)
	}

	vals := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		vals["steps_per_s"] = fastRate(untraced.stepsPerS)
		vals["alloc_mb_per_step"] = median(untraced.allocPerStep)
		vals["peak_rss_mb"] = peakRSSMB()
		vals["setup_s"] = fastTime(setups)
	} else {
		defs = perLayer
		if err := c.traceLayers(ctx, &untraced, budgetLeft, vals); err != nil {
			return nil, err
		}
	}

	metrics, err := report(defs, vals)
	if err != nil {
		return nil, err
	}
	for _, p := range c.problems {
		fmt.Fprintf(cfg.log, "FAILED CHECK %s: %s\n", s.name, p)
	}
	printTable(cfg.log, fmt.Sprintf("%s seed=%d rounds=%d steps=%d", s.name, cfg.seed, c.round, c.attempted), metrics)
	return &result{
		Correct:   len(c.problems) == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	}, nil
}

// traceLayers is the traced half of a --trace 1 run: unit costs in
// isolation, then traced rounds continuing the chain until the time budget
// is spent (two at least), then the per-layer metrics into vals.
func (c *chain) traceLayers(ctx context.Context, untraced *rates, budgetLeft func() bool, vals map[string]float64) error {
	cfg, s := c.cfg, c.cfg.spec

	if s.sim {
		// The simulator promises bit-identical reruns: replay the
		// checkpointed chain from scratch and compare the model.
		replay := &chain{cfg: cfg, w: s.newWorkload(cfg.seed)}
		for replay.round < s.minRounds && ctx.Err() == nil {
			replay.next(ctx, runFacade)
		}
		if len(c.checkpointFinal) == 0 || !slices.Equal(replay.checkpointFinal, c.checkpointFinal) {
			c.problems = append(c.problems, "simulator rerun with the same seed produced a different model")
		}
	}

	units, err := measureUnits(s, c.w, cfg.seed, cfg.unitTime, filepath.Join(cfg.outDir, "scratch-"+s.name))
	if err != nil {
		return fmt.Errorf("unit costs: %w", err)
	}

	rec := newRecorder()
	run := tracedRunner(rec)
	var traced rates
	var meshMS, teardownMS []float64
	tracedSteps := 0
	for rounds := 0; rounds < 2 || budgetLeft(); rounds++ {
		if ctx.Err() != nil {
			break
		}
		mark := rec.beginRound(rounds)
		r := c.next(ctx, run)
		if r == nil {
			rec.truncate(mark) // a failed round's spans describe no step
			continue
		}
		traced.add(s, r)
		tracedSteps += s.steps
		meshMS, teardownMS = append(meshMS, ms(r.mesh)), append(teardownMS, ms(r.teardown))
	}
	if tracedSteps == 0 {
		return fmt.Errorf("no traced round completed: %v", c.problems)
	}
	spans := linkSteps(rec.spans)
	rec.spans = spans
	if err := rec.writeFile(filepath.Join(cfg.outDir, s.name+".spans.json")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	counts := countSteps(s, spans, tracedSteps)
	for k, v := range spanMetrics(s, spans, tracedSteps, counts) {
		vals[k] = v
	}
	vals["transport.encode_us_per_frame"] = us(units.encode.wall)
	vals["transport.decode_us_per_frame"] = us(units.decode.wall)
	vals["transport.validate_us_per_frame"] = us(units.validate.wall)
	vals["transport.loopback_mb_per_s"] = units.loopbackMBps
	vals["compress.encode_us_per_frame"] = us(units.compEncode.wall)
	vals["compress.decode_us_per_frame"] = us(units.compDecode.wall)
	vals["compress.ratio"] = units.compRatio
	vals["gar.multikrum_ms"] = ms(units.multikrum.wall)
	vals["gar.median_ms"] = ms(units.median.wall)
	vals["gar.mean_ms"] = ms(units.mean.wall)
	vals["nn.batch_gradient_ms"] = ms(units.gradient.wall)
	vals["cluster.checkpoint_write_ms"] = ms(units.checkpoint.wall)
	vals["cluster.server_spread_linf"] = c.spread
	vals["guanyu.final_accuracy"] = c.accuracy
	vals["runtime.gc_per_step"] = median(untraced.gcPerStep)
	vals["runtime.gc_pause_ms_per_step"] = median(untraced.gcPauseMSPerStep)
	if s.sim {
		vals["core.sim_ms_per_update"] = 1000 / fastRate(untraced.stepsPerS)
		vals["core.updates_to_target"] = c.updatesToTarget
	} else {
		vals["cluster.mesh_setup_ms"] = median(meshMS)
		vals["cluster.teardown_ms"] = median(teardownMS)
	}
	for k, v := range budget(counts, units, 1000*median(untraced.cpuPerStep)) {
		vals[k] = v
	}
	vals["trace.overhead_share"] = 1 - fastRate(traced.stepsPerS)/fastRate(untraced.stepsPerS)
	if vals["trace.overhead_share"] >= 0.15 {
		fmt.Fprintf(cfg.log, "FLAGGED %s: tracing cost %.0f%% of throughput; read the traced numbers with care\n",
			s.name, 100*vals["trace.overhead_share"])
	}
	printBudget(cfg.log, vals)
	return nil
}

// printBudget prints the adds-up table: the layer rows, their sum, and the
// measured total they must equal.
func printBudget(w io.Writer, vals map[string]float64) {
	sum := 0.0
	for _, name := range budgetRows {
		sum += vals[name]
	}
	fmt.Fprintf(w, "# CPU budget per step (rows sum to %.3f ms; measured process CPU per step = %.3f ms)\n", sum, vals["budget.total_ms"])
	for _, name := range budgetRows {
		fmt.Fprintf(w, "  %-28s %12.3f ms  %5.1f%%\n", name, vals[name], 100*vals[name]/vals["budget.total_ms"])
	}
}
