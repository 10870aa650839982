package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Result is the outcome of one simulated run.
type Result struct {
	// Curve is the accuracy-vs-(updates, virtual time) series.
	Curve *stats.Series
	// Alignments are the Table-2 probe records (empty unless enabled).
	Alignments []stats.AlignmentRecord
	// Final is the coordinate-wise median of the honest servers' final
	// parameter vectors.
	Final tensor.Vector
	// FinalAccuracy is the full-test-set accuracy of Final.
	FinalAccuracy float64
	// VirtualTime is the total virtual seconds consumed (max over honest
	// node clocks).
	VirtualTime float64
	// Updates is the number of model updates performed.
	Updates int
}

// Run executes the configured deployment under the deterministic
// discrete-event engine and returns its convergence curve.
//
// The engine models exactly the protocol's waiting structure: a message
// from node a to node b becomes visible at a's clock plus serialization
// overhead plus a sampled network delay; a receiver waiting on a quorum of q
// proceeds at the q-th earliest arrival (or its own clock, whichever is
// later). Byzantine messages arrive instantly — the adversary owns an
// arbitrarily fast covert network (Figure 1 of the paper), so giving its
// traffic zero latency is the worst case for the honest quorums.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: ctx is checked once per
// protocol step, so a cancelled simulation returns within one step's work.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	var (
		cost      = cfg.cost()
		gradRule  = cfg.gradRule()
		paramRule = cfg.paramRule()
		q         = cfg.quorumServers()
		qBar      = cfg.quorumWorkers()
		lr        = cfg.lr()
		dim       = cfg.Model.ParamCount()
		msgBytes  = transport.VectorBytes(dim)
		rng       = tensor.NewRNG(cfg.Seed)
		// Only GuanYu nodes sanitise inbound payloads; the vanilla baseline
		// faithfully has no Byzantine filtering whatsoever, so a NaN
		// gradient poisons it (Figure 4's point).
		validate = cfg.Mode == ModeGuanYu
	)
	if cfg.Compression.Enabled() {
		// Only the payload shrinks; per-frame framing overhead is unchanged.
		msgBytes = cfg.Compression.PayloadBytes(dim) + transport.VectorBytes(0)
	}

	// xmit models one honest message crossing the wire under the configured
	// compression: the payload is round-tripped through the directed link's
	// encoder, so receivers see exactly the lossy values a live cluster
	// would (float32 truncation, top-k with error feedback). Encoder state
	// lives per directed link for the whole run, mirroring connection-
	// lifetime codec state on the live transports.
	// Disabled compression passes vectors through untouched.
	var links map[string]*simLink
	var dec compress.Decoder
	if cfg.Compression.Enabled() {
		links = make(map[string]*simLink)
	}
	xmit := func(from, to string, kind transport.Kind, step int, vec tensor.Vector) (tensor.Vector, error) {
		if links == nil {
			return vec, nil
		}
		key := from + "\x00" + to
		l := links[key]
		if l == nil {
			l = &simLink{enc: compress.NewEncoder(cfg.Compression)}
			links[key] = l
		}
		var err error
		l.buf, err = l.enc.Encode(l.buf[:0], uint8(kind), int64(step), 0, vec)
		if err != nil {
			return nil, fmt.Errorf("core: compress %s→%s: %w", from, to, err)
		}
		out, err := dec.Decode(cfg.Compression.Scheme, uint8(kind), int64(step), 0,
			len(vec), l.buf, make(tensor.Vector, 0, len(vec)))
		if err != nil {
			return nil, fmt.Errorf("core: decompress %s→%s: %w", from, to, err)
		}
		return out, nil
	}

	// Honest/Byzantine partitions.
	honestServers := make([]int, 0, cfg.NumServers)
	for i := 0; i < cfg.NumServers; i++ {
		if cfg.ServerAttacks[i] == nil {
			honestServers = append(honestServers, i)
		}
	}
	// Churn: live tracks which honest servers are up. A crashed or departed
	// server is silent (+Inf arrivals) with frozen state; Byzantine servers
	// never churn (a crashing adversary only helps the honest quorums).
	live := make(map[int]bool, len(honestServers))
	for _, i := range honestServers {
		live[i] = true
	}
	var churnByStep map[int][]ChurnEvent
	if cfg.Churn != nil {
		churnByStep = cfg.Churn.byStep()
		for _, i := range cfg.Churn.initialAbsent() {
			live[i] = false
		}
	}
	liveHonest := func() []int {
		out := make([]int, 0, len(honestServers))
		for _, i := range honestServers {
			if live[i] {
				out = append(out, i)
			}
		}
		return out
	}
	honestWorkers := make([]int, 0, cfg.NumWorkers)
	for j := 0; j < cfg.NumWorkers; j++ {
		if cfg.WorkerAttacks[j] == nil {
			honestWorkers = append(honestWorkers, j)
		}
	}

	// State: θ per honest server (all start at θ₀), a sampler per honest
	// worker, per-node virtual clocks, and one model replica the workers
	// take turns on — each gradient overwrites its parameters and zeroes
	// its gradient buffers first, so a turn inherits nothing.
	theta0 := cfg.Model.ParamVector()
	theta := make(map[int]tensor.Vector, len(honestServers))
	clockS := make(map[int]float64, len(honestServers))
	for _, i := range honestServers {
		theta[i] = tensor.Clone(theta0)
	}
	worker := cfg.Model.Clone()
	samplers := make(map[int]*dataset.Sampler, len(honestWorkers))
	clockW := make(map[int]float64, len(honestWorkers))
	for _, j := range honestWorkers {
		source := cfg.Train
		if len(cfg.WorkerShards) > 0 {
			source = cfg.WorkerShards[j%len(cfg.WorkerShards)]
		}
		samplers[j] = dataset.NewSampler(source, rng.Split())
	}
	evalModel := cfg.Model.Clone()
	evalRNG := rng.Split()

	ser := cost.serOverhead()
	res := &Result{Curve: &stats.Series{Name: deploymentName(cfg)}}

	// honestThetas is the live honest state: a crashed or departed server's
	// frozen θ is not part of the deployment's observable state.
	honestThetas := func() []tensor.Vector {
		out := make([]tensor.Vector, 0, len(theta))
		for _, i := range honestServers {
			if live[i] {
				out = append(out, theta[i])
			}
		}
		return out
	}

	evaluate := func(step int, virtualTime, loss float64) error {
		med, err := gar.Median{}.Aggregate(honestThetas())
		if err != nil {
			return err
		}
		if err := evalModel.SetParamVector(med); err != nil {
			return err
		}
		xs, labels := evalSubset(cfg, evalRNG)
		res.Curve.Add(stats.Point{
			Step:     step,
			Time:     virtualTime,
			Accuracy: nn.Accuracy(evalModel, xs, labels),
			Loss:     loss,
			Drift:    tensor.MaxPairwiseDistance(honestThetas()),
		})
		return nil
	}

	for t := 0; t < cfg.Steps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run cancelled at step %d: %w", t, err)
		}
		eta := lr(t)

		// Membership changes take effect at the step boundary: crashes and
		// leaves silence their server before this step's traffic; recoveries
		// and joins adopt the coordinate-wise median of the live honest
		// servers' parameters (the simulator's median rejoin) with a clock
		// caught up to the live frontier.
		for _, ev := range churnByStep[t] {
			switch ev.Kind {
			case ChurnCrash, ChurnLeave:
				live[ev.Server] = false
			case ChurnRecover, ChurnJoin:
				med, err := gar.Median{}.Aggregate(honestThetas())
				if err != nil {
					return nil, fmt.Errorf("core: step %d: churn %s of server %d: %w", t, ev.Kind, ev.Server, err)
				}
				theta[ev.Server] = med
				var frontier float64
				for _, i := range liveHonest() {
					if clockS[i] > frontier {
						frontier = clockS[i]
					}
				}
				clockS[ev.Server] = frontier
				live[ev.Server] = true
			}
		}

		// Omniscient server attacks see every honest parameter vector of the
		// step before corrupting (the adversary reads all honest state; it
		// just cannot speak for honest nodes).
		attack.ObserveAll(cfg.ServerAttacks,
			attack.NewStepView(t, honestThetas(), cfg.FServers, len(cfg.ServerAttacks)))

		// ---- Phase 1: servers → workers, median, gradient computation ----
		// Arrival time of server i's parameters at worker j.
		grads := make(map[int]tensor.Vector, len(honestWorkers))
		var meanLoss float64
		for _, j := range honestWorkers {
			arrivals := make([]float64, cfg.NumServers)
			payloads := make([]tensor.Vector, cfg.NumServers)
			for i := 0; i < cfg.NumServers; i++ {
				if att := cfg.ServerAttacks[i]; att != nil {
					vec := att.Corrupt(medianOrFirst(honestThetas()), t, cluster.WorkerID(j))
					if rejectPayload(vec, dim, validate) {
						arrivals[i] = math.Inf(1) // silence or rejected payload
						continue
					}
					payloads[i] = vec
					arrivals[i] = 0 // adversary's covert network: instant
					continue
				}
				if !live[i] {
					arrivals[i] = math.Inf(1) // crashed or departed: silent
					continue
				}
				p, err := xmit(cluster.ServerID(i), cluster.WorkerID(j), transport.KindParams, t, theta[i])
				if err != nil {
					return nil, err
				}
				payloads[i] = p
				arrivals[i] = cfg.Faults.Arrival(t, cluster.ServerID(i), cluster.WorkerID(j),
					clockS[i]+ser+
						cost.Latency.Sample(cluster.ServerID(i), cluster.WorkerID(j), msgBytes)+ser)
			}
			idx, when := transport.QuorumArrival(arrivals, q)
			if math.IsInf(when, 1) {
				return nil, fmt.Errorf("core: step %d: worker %d cannot assemble a parameter quorum (q=%d)", t, j, q)
			}
			sel := make([]tensor.Vector, len(idx))
			for k, i := range idx {
				sel[k] = payloads[i]
			}
			agg, err := paramRule.Aggregate(sel)
			if err != nil {
				return nil, fmt.Errorf("core: step %d worker %d: %w", t, j, err)
			}
			if err := worker.SetParamVector(agg); err != nil {
				return nil, err
			}
			xs, labels := samplers[j].Batch(cfg.Batch)
			loss, g := nn.BatchGradient(worker, xs, labels)
			meanLoss += loss
			grads[j] = g
			start := math.Max(when, clockW[j])
			clockW[j] = start + cost.aggTime(paramRule, q) +
				cost.GradBase + cost.GradPerExample*float64(cfg.Batch)
		}
		meanLoss /= float64(len(honestWorkers))

		// Basis gradient handed to the omniscient adversary.
		honestGradList := make([]tensor.Vector, 0, len(grads))
		for _, j := range honestWorkers {
			honestGradList = append(honestGradList, grads[j])
		}
		adversaryBasis := tensor.Mean(honestGradList)
		// Omniscient worker attacks observe every honest gradient of the step.
		attack.ObserveAll(cfg.WorkerAttacks,
			attack.NewStepView(t, honestGradList, cfg.FWorkers, len(cfg.WorkerAttacks)))

		// ---- Phase 2: workers → servers, Multi-Krum, local update ----
		for _, i := range liveHonest() {
			arrivals := make([]float64, cfg.NumWorkers)
			payloads := make([]tensor.Vector, cfg.NumWorkers)
			for j := 0; j < cfg.NumWorkers; j++ {
				if att := cfg.WorkerAttacks[j]; att != nil {
					vec := att.Corrupt(adversaryBasis, t, cluster.ServerID(i))
					if rejectPayload(vec, dim, validate) {
						arrivals[j] = math.Inf(1)
						continue
					}
					payloads[j] = vec
					arrivals[j] = 0
					continue
				}
				p, err := xmit(cluster.WorkerID(j), cluster.ServerID(i), transport.KindGradient, t, grads[j])
				if err != nil {
					return nil, err
				}
				payloads[j] = p
				arrivals[j] = cfg.Faults.Arrival(t, cluster.WorkerID(j), cluster.ServerID(i),
					clockW[j]+ser+
						cost.Latency.Sample(cluster.WorkerID(j), cluster.ServerID(i), msgBytes)+ser)
			}
			idx, when := transport.QuorumArrival(arrivals, qBar)
			if math.IsInf(when, 1) {
				return nil, fmt.Errorf("core: step %d: server %d cannot assemble a gradient quorum (q̄=%d)", t, i, qBar)
			}
			sel := make([]tensor.Vector, len(idx))
			for k, j := range idx {
				sel[k] = payloads[j]
			}
			agg, err := gradRule.Aggregate(sel)
			if err != nil {
				return nil, fmt.Errorf("core: step %d server %d: %w", t, i, err)
			}
			tensor.AXPY(theta[i], -eta, agg)
			start := math.Max(when, clockS[i])
			clockS[i] = start + cost.aggTime(gradRule, qBar) + cost.UpdateTime
		}

		// ---- Phase 3: server ↔ server contraction round ----
		if cfg.Mode == ModeGuanYu && !cfg.DisableServerExchange && q > 1 {
			// Snapshot so every receiver aggregates the same round's vectors.
			exchangers := liveHonest()
			sentTheta := make(map[int]tensor.Vector, len(exchangers))
			sentClock := make(map[int]float64, len(exchangers))
			for _, i := range exchangers {
				sentTheta[i] = theta[i]
				sentClock[i] = clockS[i]
			}
			medBasis := medianOrFirst(honestThetas())
			// Refresh the omniscient server attacks' view with the updated
			// honest parameter vectors before the contraction round.
			attack.ObserveAll(cfg.ServerAttacks,
				attack.NewStepView(t, honestThetas(), cfg.FServers, len(cfg.ServerAttacks)))
			newTheta := make(map[int]tensor.Vector, len(exchangers))
			for _, i := range exchangers {
				arrivals := make([]float64, cfg.NumServers)
				payloads := make([]tensor.Vector, cfg.NumServers)
				for k := 0; k < cfg.NumServers; k++ {
					switch {
					case k == i:
						payloads[k] = sentTheta[i]
						arrivals[k] = sentClock[i] // own vector: no network
					case cfg.ServerAttacks[k] == nil && !live[k]:
						arrivals[k] = math.Inf(1) // crashed or departed: silent
					case cfg.ServerAttacks[k] != nil:
						vec := cfg.ServerAttacks[k].Corrupt(medBasis, t, cluster.ServerID(i))
						if rejectPayload(vec, dim, validate) {
							arrivals[k] = math.Inf(1)
							continue
						}
						payloads[k] = vec
						arrivals[k] = 0
					default:
						p, err := xmit(cluster.ServerID(k), cluster.ServerID(i), transport.KindPeerParams, t, sentTheta[k])
						if err != nil {
							return nil, err
						}
						payloads[k] = p
						arrivals[k] = cfg.Faults.Arrival(t, cluster.ServerID(k), cluster.ServerID(i),
							sentClock[k]+ser+
								cost.Latency.Sample(cluster.ServerID(k), cluster.ServerID(i), msgBytes)+ser)
					}
				}
				idx, when := transport.QuorumArrival(arrivals, q)
				if math.IsInf(when, 1) {
					return nil, fmt.Errorf("core: step %d: server %d cannot assemble a peer quorum (q=%d)", t, i, q)
				}
				sel := make([]tensor.Vector, len(idx))
				for k, s := range idx {
					sel[k] = payloads[s]
				}
				agg, err := paramRule.Aggregate(sel)
				if err != nil {
					return nil, fmt.Errorf("core: step %d server %d exchange: %w", t, i, err)
				}
				newTheta[i] = agg
				start := math.Max(when, clockS[i])
				clockS[i] = start + cost.aggTime(paramRule, q)
			}
			for i, v := range newTheta {
				theta[i] = v
			}
		}

		// ---- Instrumentation ----
		update := t + 1
		if update%cfg.evalEvery() == 0 || update == cfg.Steps {
			if err := evaluate(update, maxClock(clockS), meanLoss); err != nil {
				return nil, err
			}
		}
		if cfg.AlignEvery > 0 && update%cfg.AlignEvery == 0 && update >= cfg.AlignAfter {
			if rec, ok := stats.Alignment(update, honestThetas()); ok {
				res.Alignments = append(res.Alignments, rec)
			}
		}
	}

	final, err := gar.Median{}.Aggregate(honestThetas())
	if err != nil {
		return nil, err
	}
	if err := evalModel.SetParamVector(final); err != nil {
		return nil, err
	}
	res.Final = final
	res.FinalAccuracy = nn.Accuracy(evalModel, cfg.Test.X, cfg.Test.Labels)
	res.VirtualTime = maxClock(clockS)
	res.Updates = cfg.Steps
	return res, nil
}

// simLink is one directed link's encoder, with a reused scratch buffer for
// the encoded payload it hands to the (stateless) decoder.
type simLink struct {
	enc *compress.Encoder
	buf []byte
}

// evalSubset returns the evaluation examples (a random subset of Test when
// EvalExamples is set, to keep per-point evaluation cheap).
func evalSubset(cfg Config, rng *tensor.RNG) ([][]float64, []int) {
	n := cfg.EvalExamples
	if n <= 0 {
		n = 256
	}
	if cfg.Test.Len() <= n {
		return cfg.Test.X, cfg.Test.Labels
	}
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(cfg.Test.Len())
		xs[i] = cfg.Test.X[k]
		labels[i] = cfg.Test.Labels[k]
	}
	return xs, labels
}

// rejectPayload decides whether a Byzantine payload is dropped at receipt:
// nil means silence; wrong dimension is always malformed; non-finite values
// are rejected only by validating (GuanYu) receivers.
func rejectPayload(vec tensor.Vector, dim int, validate bool) bool {
	if vec == nil || len(vec) != dim {
		return true
	}
	return validate && !tensor.IsFinite(vec)
}

// medianOrFirst gives the adversary its omniscient view of the honest state.
func medianOrFirst(thetas []tensor.Vector) tensor.Vector {
	if len(thetas) == 1 {
		return thetas[0]
	}
	med, err := gar.Median{}.Aggregate(thetas)
	if err != nil {
		return thetas[0]
	}
	return med
}

func maxClock(clocks map[int]float64) float64 {
	var m float64
	for _, c := range clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// deploymentName labels result curves the way the paper's legends do.
func deploymentName(cfg Config) string {
	switch cfg.Mode {
	case ModeVanilla:
		if cfg.cost().OptimizedRuntime {
			return "vanilla TF"
		}
		return "GuanYu (vanilla)"
	default:
		return fmt.Sprintf("GuanYu (fwrk=%d, fps=%d)", cfg.FWorkers, cfg.FServers)
	}
}
