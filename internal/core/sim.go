package core

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	// are never live (a crashing adversary only helps the honest quorums).
	live := make([]bool, cfg.NumServers)
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
		return slices.DeleteFunc(slices.Clone(honestServers), func(i int) bool { return !live[i] })
	}
	honestWorkers := make([]int, 0, cfg.NumWorkers)
	for j := 0; j < cfg.NumWorkers; j++ {
		if cfg.WorkerAttacks[j] == nil {
			honestWorkers = append(honestWorkers, j)
		}
	}

	// State, indexed by node (Byzantine entries stay empty): θ per honest
	// server (all start at θ₀), a sampler per honest worker, per-node
	// virtual clocks, and one model replica the workers take turns on —
	// each gradient overwrites its parameters and zeroes its gradient
	// buffers first, so a turn inherits nothing.
	theta0 := cfg.Model.ParamVector()
	theta := make([]tensor.Vector, cfg.NumServers)
	clockS := make([]float64, cfg.NumServers)
	for _, i := range honestServers {
		theta[i] = tensor.Clone(theta0)
	}
	worker := cfg.Model.Clone()
	samplers := make([]*dataset.Sampler, cfg.NumWorkers)
	clockW := make([]float64, cfg.NumWorkers)
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
		out := make([]tensor.Vector, 0, len(honestServers))
		for _, i := range liveHonest() {
			out = append(out, theta[i])
		}
		return out
	}
	// serverRound opens a round of θ broadcasts sent at the given clocks.
	// The Byzantine servers see the live honest θ (the adversary reads all
	// honest state; it just cannot speak for honest nodes) and corrupt its
	// median. θ is a snapshot, so a receiver may replace its own θ while the
	// round's others still aggregate the sent one.
	serverRound := func(t int, kind transport.Kind, clocks []float64, what string) *round {
		r := &round{kind: kind, id: cluster.ServerID, attacks: cfg.ServerAttacks,
			vecs: slices.Clone(theta), clocks: clocks, live: live,
			q: q, rule: paramRule, what: what}
		if len(cfg.ServerAttacks) > 0 {
			honest := honestThetas()
			r.basis = medianOrFirst(honest)
			r.view = attack.NewStepView(t, honest, cfg.FServers, len(cfg.ServerAttacks))
		}
		return r
	}

	// gather assembles one receiver's quorum of round r and aggregates it.
	// Each sender k is either Byzantine (its corruption of the round's basis
	// arrives at once — the adversary owns an instant covert network —
	// unless rejectPayload refuses it), the receiver itself (self; its own
	// vector at its own clock, no network), silent (a crashed or departed
	// server, never arriving) or honest (its vector crosses the link's codec
	// and lands at its clock plus two serialisations and a sampled latency,
	// with faults applied). Senders are visited in index order, so every
	// Corrupt and Latency.Sample draw keeps its sequence. It returns the
	// aggregate of the first q arrivals and when the q-th landed. An
	// omniscient payload is the round's (round.corrupt); it is read only
	// here, and every Rule.Aggregate returns a fresh vector, so nothing
	// keeps it past the round.
	gather := func(t int, r *round, to string, self int) (tensor.Vector, float64, error) {
		n := len(r.vecs)
		arrivals := make([]float64, n)
		payloads := make([]tensor.Vector, n)
		for k := 0; k < n; k++ {
			from := r.id(k)
			switch att := r.attacks[k]; {
			case k == self:
				payloads[k], arrivals[k] = r.vecs[k], r.clocks[k]
			case att != nil:
				if payloads[k] = r.corrupt(att, t, to); rejectPayload(payloads[k], dim, validate) {
					arrivals[k] = math.Inf(1)
				}
			case r.live != nil && !r.live[k]:
				arrivals[k] = math.Inf(1)
			default:
				p, err := xmit(from, to, r.kind, t, r.vecs[k])
				if err != nil {
					return nil, 0, err
				}
				payloads[k] = p
				arrivals[k] = cfg.Faults.Arrival(t, from, to,
					r.clocks[k]+ser+cost.Latency.Sample(from, to, msgBytes)+ser)
			}
		}
		idx, when := transport.QuorumArrival(arrivals, r.q)
		if math.IsInf(when, 1) {
			return nil, 0, fmt.Errorf("core: step %d: %s cannot assemble a %s quorum (q=%d)", t, to, r.what, r.q)
		}
		sel := make([]tensor.Vector, len(idx))
		for k, i := range idx {
			sel[k] = payloads[i]
		}
		agg, err := r.rule.Aggregate(sel)
		if err != nil {
			return nil, 0, fmt.Errorf("core: step %d: %s %s round: %w", t, to, r.what, err)
		}
		return agg, when, nil
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

		// ---- Phase 1: servers → workers, median, gradient computation ----
		params := serverRound(t, transport.KindParams, clockS, "parameter")
		grads := make([]tensor.Vector, cfg.NumWorkers)
		honestGrads := make([]tensor.Vector, 0, len(honestWorkers))
		var meanLoss float64
		for _, j := range honestWorkers {
			agg, when, err := gather(t, params, cluster.WorkerID(j), -1)
			if err != nil {
				return nil, err
			}
			if err := worker.SetParamVector(agg); err != nil {
				return nil, err
			}
			xs, labels := samplers[j].Batch(cfg.Batch)
			loss, g := nn.BatchGradient(worker, xs, labels)
			meanLoss += loss
			grads[j] = g
			honestGrads = append(honestGrads, g)
			start := math.Max(when, clockW[j])
			clockW[j] = start + cost.aggTime(paramRule, q) +
				cost.GradBase + cost.GradPerExample*float64(cfg.Batch)
		}
		meanLoss /= float64(len(honestWorkers))
		params.crafts.Release()

		// ---- Phase 2: workers → servers, Multi-Krum, local update ----
		// Byzantine workers see every honest gradient of the step and
		// corrupt their mean.
		gradients := &round{kind: transport.KindGradient, id: cluster.WorkerID,
			attacks: cfg.WorkerAttacks, basis: tensor.Mean(honestGrads),
			view: attack.NewStepView(t, honestGrads, cfg.FWorkers, len(cfg.WorkerAttacks)),
			vecs: grads, clocks: clockW,
			q: qBar, rule: gradRule, what: "gradient"}
		for _, i := range liveHonest() {
			agg, when, err := gather(t, gradients, cluster.ServerID(i), -1)
			if err != nil {
				return nil, err
			}
			tensor.AXPY(theta[i], -eta, agg)
			start := math.Max(when, clockS[i])
			clockS[i] = start + cost.aggTime(gradRule, qBar) + cost.UpdateTime
		}
		gradients.crafts.Release()

		// ---- Phase 3: server ↔ server contraction round ----
		if cfg.Mode == ModeGuanYu && !cfg.DisableServerExchange && q > 1 {
			// Every receiver aggregates the same round's vectors: the send
			// clocks are a snapshot because each receiver's clock advances as
			// it goes, like its θ.
			peers := serverRound(t, transport.KindPeerParams, slices.Clone(clockS), "peer")
			for _, i := range liveHonest() {
				agg, when, err := gather(t, peers, cluster.ServerID(i), i)
				if err != nil {
					return nil, err
				}
				theta[i] = agg
				start := math.Max(when, clockS[i])
				clockS[i] = start + cost.aggTime(paramRule, q)
			}
			peers.crafts.Release()
		}

		// ---- Instrumentation ----
		update := t + 1
		if update%cfg.evalEvery() == 0 || update == cfg.Steps {
			if err := evaluate(update, slices.Max(clockS), meanLoss); err != nil {
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
	res.VirtualTime = slices.Max(clockS)
	res.Updates = cfg.Steps
	return res, nil
}

// round is one quorum round's sender side: sender k is id(k), Byzantine
// when attacks[k] is set (corrupting basis, or crafting from view), and
// otherwise sends vecs[k] at clocks[k] — or nothing when live is set and
// live[k] is false. The receivers aggregate their first q arrivals with
// rule; what names the quorum in the liveness error. crafts holds what the
// round's omniscient colluders send, until the caller releases it once
// every receiver has aggregated.
type round struct {
	kind    transport.Kind
	id      func(int) string
	attacks map[int]attack.Attack
	basis   tensor.Vector
	view    attack.ClusterView
	crafts  attack.Crafts
	vecs    []tensor.Vector
	clocks  []float64
	live    []bool
	q       int
	rule    gar.Rule
	what    string
}

// corrupt is Byzantine attack att's payload to receiver to at step t: an
// omniscient attack's one vector for the round, crafted from view on first
// use, and otherwise att's corruption of basis.
func (r *round) corrupt(att attack.Attack, t int, to string) tensor.Vector {
	if o, ok := att.(attack.Omniscient); ok {
		if out := r.crafts.Get(o, uint8(r.kind), r.view); out != nil {
			return out
		}
	}
	return att.Corrupt(r.basis, t, to)
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
