package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// validator is the inbound-message filter every honest node installs:
// messages must carry a sender identity (the TCP transport pins it to the
// connection's hello-authenticated peer; an empty From could otherwise
// occupy a quorum slot as a phantom sender) and payloads — whole vectors or
// single shards — must contain only finite values. Anything else is treated
// as silence from that sender. Finiteness is Message.Finite: the TCP reader
// checks a float32 frame while it widens it and says so on the message;
// every other payload is scanned here (tensor.IsFinite). A non-finite frame
// reaches the validator either way and is dropped here. Dimension and
// shard-extent checks are the collector's layout job; frame-level sanity
// (bounded lengths, well-formed floats) is the wire codec's — see
// transport/codec.go.
func validator(m transport.Message) bool {
	return m.From != "" && m.Finite()
}

// broadcast transmits vec to every node in tos; a positive shardSize streams
// it as chunk frames (see transport.SendSharded). A nil attack means honest:
// one transport.Broadcast, which splits the vector once and lets an endpoint
// that can — the couriers — snapshot and encode each frame once for all
// destinations. An omniscient attack sends every receiver one vector: the
// one its colluders craft for (kind, step) from view, or, while view shows
// no honest vector (or is nil), its own fallback, handed back once sent. Any
// other Byzantine node routes every message through att per destination,
// because it may equivocate. Corruption happens on the whole vector first,
// so a Byzantine payload shards exactly like an honest one, and a nil result
// is silence towards that receiver. Send errors are deliberately dropped:
// the network model is best-effort and the quorum discipline tolerates
// missing messages. Payload immutability is the transport's job: every
// Endpoint delivers a snapshot (the in-process network clones per receiver,
// TCP copies by serialising, the couriers clone once per broadcast) and only
// borrows vec until the call returns, so a sender may keep mutating vec
// afterwards — or recycle it.
func broadcast(ep transport.Endpoint, att attack.Attack, view *attack.SharedView, kind transport.Kind,
	step int, tos []string, vec tensor.Vector, shardSize int) {
	if att == nil {
		_ = transport.Broadcast(ep, tos, transport.Message{Kind: kind, Step: step, Vec: vec}, shardSize)
		return
	}
	o, omniscient := att.(attack.Omniscient)
	var out tensor.Vector
	if omniscient {
		if out = view.Craft(o, uint8(kind), step); out == nil {
			out = o.Corrupt(vec, step, "")
			defer tensor.Put(out)
		}
	}
	for _, to := range tos {
		if !omniscient {
			out = att.Corrupt(vec, step, to)
		}
		if out != nil {
			_ = transport.SendSharded(ep, to, transport.Message{Kind: kind, Step: step, Vec: out}, shardSize)
		}
	}
}

// quorum is a node loop's one way to gather and reduce a quorum: the node's
// collector plus the wait each collection is allowed.
type quorum struct {
	col     *transport.Collector
	timeout time.Duration
}

// newQuorum picks the node's layout once: with a shard size set and every
// rule the node will aggregate with streaming-capable, inbound traffic is
// reduced shard by shard; otherwise at the one-shard layout, whole vectors
// (which reassembles chunk frames, so sharded senders interoperate either
// way). Every counter lands in h. senders is who may fill which quorum —
// per kind, the IDs the node's own config names — and the collector drops
// every other (kind, sender) pair on arrival.
func newQuorum(ep transport.Endpoint, dim, shardSize int, timeout time.Duration,
	h *metrics.NodeMetrics, senders map[transport.Kind][]string, rules ...gar.Rule) *quorum {
	for _, r := range rules {
		if _, ok := r.(gar.StreamingRule); !ok {
			shardSize = 0
		}
	}
	col := transport.NewCollector(ep, transport.NewShardLayout(dim, shardSize))
	col.Validator, col.Metrics, col.Senders = validator, h, senders
	return &quorum{col: col, timeout: timeout}
}

// aggregate gathers n messages of (kind, step) and reduces them with rule,
// which must be one of the rules the quorum was built for. A non-nil self is
// this node's own vector, aggregated as input 0 under selfID — the
// contraction round's "own vector included" without a loopback message.
// When sus is non-nil (gradient quorums, which carry no self vector) and
// the rule is selective (Multi-Krum), the senders the rule excluded are
// reported to it — the accountability signal. The caller owns the returned
// vector (a fresh one or one from tensor.Get) and hands it to tensor.Put
// when done; the quorum's inputs are recycled here, once nothing reads them.
func (q *quorum) aggregate(kind transport.Kind, step, n int, self tensor.Vector, selfID string,
	rule gar.Rule, sus *stats.Suspicion) (tensor.Vector, error) {
	senders, st, out, err := q.reduce(kind, step, n, self, selfID, rule)
	if err != nil {
		return nil, err
	}
	// Only a pinned quorum has a single sender order for kept to index.
	if sel, ok := st.(interface{ SelectedIndices() []int }); ok && sus != nil && len(senders) > 0 {
		if kept := sel.SelectedIndices(); kept != nil {
			keptIDs := make([]string, len(kept))
			for i, k := range kept {
				keptIDs[i] = senders[k]
			}
			sus.Observe(senders, keptIDs)
		}
	}
	// Only now: Multi-Krum's Result averaged its retained inputs and the
	// adapter's SelectedIndices re-read them.
	q.col.Recycle()
	return out, nil
}

// reduce runs one quorum through the rule's streamer (gar.StreamerFor):
// every completed shard is folded as it arrives, and the aggregate
// materialises the moment the last shard's quorum closes — at the one-shard
// layout, one fold of the first n whole vectors. Returns the pinned sender
// order (nil for per-shard quorums), the finished streamer, and the
// aggregated vector.
//
// Pinned-quorum liveness failover: a pinned membership needs every pinned
// member's every shard to arrive within the round, so a pinned member that
// crashes mid-round stalls the collection where a one-shard quorum would
// have substituted another sender. When a collection times out on its pin,
// the round is reset (transport.Collector.ResetRound) and retried once with
// a fresh streamer — the retry's first-q pin is drawn from the senders still
// alive. A second timeout is returned to the caller: at that point the
// deployment is below quorum, not unlucky.
func (q *quorum) reduce(kind transport.Kind, step, n int, self tensor.Vector, selfID string,
	rule gar.Rule) (senders []string, st gar.ShardStreamer, out tensor.Vector, err error) {
	collect := func() ([]string, error) {
		var pinned bool
		st, pinned = gar.StreamerFor(rule, q.col.Layout.Dim)
		return q.col.Collect(kind, step, n, self, selfID, pinned,
			func(lo, hi int, _ []string, inputs []tensor.Vector) error {
				if err := st.Fold(lo, hi, inputs); err != nil {
					return fmt.Errorf("aggregate %s: %w", kind, err)
				}
				return nil
			}, q.timeout)
	}
	senders, err = collect()
	if err != nil && errors.Is(err, transport.ErrQuorumTimeout) && q.col.ResetRound(kind, step) {
		senders, err = collect()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if out, err = st.Result(); err != nil {
		return nil, nil, nil, fmt.Errorf("aggregate %s: %w", kind, err)
	}
	return senders, st, out, nil
}

// ServerConfig parameterises one parameter-server node.
type ServerConfig struct {
	// ID is this node's network identifier.
	ID string
	// Workers lists the worker node IDs: broadcast targets for phase 1 and
	// the only senders whose gradients may enter phase 2's quorum.
	Workers []string
	// Peers lists the other parameter servers: phase 3's targets and the
	// only senders whose vectors may enter its quorum (or a rejoin's).
	Peers []string
	// Init is the shared initial parameter vector θ₀.
	Init tensor.Vector
	// GradRule aggregates worker gradients (the paper's F, Multi-Krum).
	GradRule gar.Rule
	// ParamRule aggregates peer parameter vectors (the paper's M, median).
	ParamRule gar.Rule
	// QuorumGradients is q̄, the number of gradients awaited each step.
	QuorumGradients int
	// QuorumParams is q, the number of parameter vectors (own included)
	// aggregated in the contraction round. 1 disables the exchange.
	QuorumParams int
	// Steps is the number of learning steps to run.
	Steps int
	// LR returns the learning rate η_t for step t.
	LR func(step int) float64
	// Timeout bounds each quorum wait; ≤ 0 means wait forever (the faithful
	// asynchronous setting).
	Timeout time.Duration
	// Attack, when non-nil, makes this server Byzantine: every outbound
	// message passes through it.
	Attack attack.Attack
	// View, when non-nil, is the omniscient adversary's window onto the
	// honest servers' parameter vectors: honest servers publish their θ to
	// it each step, Byzantine servers running an attack.Omniscient send
	// what their colluders craft from it. In-process runtimes share one
	// view per message class; multi-process deployments leave it nil (an
	// adversary spanning processes would need its own covert channel), in
	// which case omniscient attacks degrade to their local-knowledge
	// fallback. A Byzantine server running an attack.Omniscient passes
	// each step on the view once its phase-3 broadcast is out, which hands
	// the step back when it is the view's last crafter to do so (see
	// attack.SharedView.Pass). Whoever built the view closes it after every
	// loop sharing it has returned (RunLiveContext does), or leaves what a
	// failed crafter never passed to the garbage collector.
	View *attack.SharedView
	// Suspicion, when non-nil and GradRule is selective (e.g. Multi-Krum),
	// accumulates which workers' gradients the rule excluded each round —
	// the accountability signal that surfaces actually-Byzantine senders.
	Suspicion *stats.Suspicion
	// ShardSize, when positive, streams every outbound vector as chunk
	// frames of that many coordinates and — when both rules support
	// streaming — makes it the collector's layout, so inbound shards are
	// aggregated incrementally as their quorums fill (see
	// transport.Collector). Results are bit-identical at every layout. Peak
	// receive buffering drops from O(q·d) to O(q·shard) for coordinate-wise
	// rules; Multi-Krum's streamer retains its q pinned inputs until the
	// post-selection mean (an O(q·d) floor, with the distance pass
	// overlapped). Zero is the one-shard layout: whole-vector framing.
	ShardSize int
	// Metrics is this node's counter handle: the collector counts its drops
	// and peak buffering into it, and the loop publishes step completion /
	// quorum progress — current at any moment, also after a cancellation.
	// Pass the node's registry handle (and attach the same one to the node's
	// transport: TCPNode.SetMetrics, ChanNetwork.SetNodeMetrics,
	// Couriers.SetMetrics) for one per-node view a scraper reads mid-run; nil
	// means a private handle nobody reads.
	Metrics *metrics.NodeMetrics
	// Checkpoint, when non-nil with a positive cadence, persists the
	// server's resumable state (step, θ, horizon) into Checkpoint.Dir every
	// Checkpoint.Every steps, atomically — see checkpoint.go. A persistence
	// failure aborts the run: a server that silently stops checkpointing
	// would advertise crash-recovery it no longer has.
	Checkpoint *CheckpointSpec
	// Restore, when non-nil, resumes the loop from a previously persisted
	// state instead of Init: θ is adopted and the loop starts at
	// Restore.Step+1. The checkpoint's ID and dimension must match the
	// config's.
	Restore *Checkpoint
	// Rejoin, with Restore set, makes the restart elastic: before
	// resuming, the server listens to the live contraction-round traffic
	// and adopts the coordinate-wise median of QuorumParams−1 peers'
	// states at whatever step the cluster has reached (RejoinMedian),
	// falling back to the plain Restore state if no quorum materialises
	// within Timeout. The discovery phase buffers, never consumes, the
	// frames of the step it resumes into, at any layout.
	Rejoin bool
}

// RunServer executes the server loop and returns the node's final parameter
// vector. It returns an error if a quorum cannot be assembled before the
// timeout or the endpoint closes.
func RunServer(ep transport.Endpoint, cfg ServerConfig) (tensor.Vector, error) {
	dim := len(cfg.Init)
	h := cfg.Metrics
	if h == nil {
		h = metrics.NewNodeMetrics()
	}
	qm := newQuorum(ep, dim, cfg.ShardSize, cfg.Timeout, h, map[transport.Kind][]string{
		transport.KindGradient:   cfg.Workers,
		transport.KindPeerParams: cfg.Peers,
	}, cfg.GradRule, cfg.ParamRule)
	defer qm.col.Advance(math.MaxInt) // what the run left buffered goes back
	theta := tensor.Clone(cfg.Init)

	start := 0
	if cfg.Restore != nil {
		r := cfg.Restore
		if r.ID != cfg.ID {
			return nil, fmt.Errorf("server %s: restore checkpoint belongs to %q", cfg.ID, r.ID)
		}
		if len(r.Theta) != dim {
			return nil, fmt.Errorf("server %s: restore dimension %d, deployment is %d", cfg.ID, len(r.Theta), dim)
		}
		theta = tensor.Clone(r.Theta)
		start = r.Step + 1
		if r.Horizon > 0 {
			qm.col.Horizon = r.Horizon
		}
		if cfg.Rejoin {
			// Catch up to wherever the live cluster is: adopt the median
			// of a peer-params quorum at the first step ≥ our checkpoint
			// that completes one. Discovery shares the loop's collector,
			// so frames for the resumed step stay buffered for phase 3.
			// No quorum before the timeout means the cluster is not ahead
			// of us (or not alive): resume from the checkpoint alone.
			med, at, err := RejoinMedian(qm.col, start, cfg.QuorumParams-1, cfg.Timeout)
			switch {
			case err == nil:
				tensor.Put(theta) // the restored copy, which the median replaces
				theta = med
				start = at + 1
			case errors.Is(err, transport.ErrQuorumTimeout):
				// Resume from the checkpoint alone.
			default:
				return nil, fmt.Errorf("server %s: %w", cfg.ID, err)
			}
		}
	}

	_, crafts := cfg.Attack.(attack.Omniscient)
	for t := start; t < cfg.Steps; t++ {
		qm.col.Advance(t)

		// Phase 1: publish the current model to every worker. Honest servers
		// expose θ to the omniscient adversary's view; a Byzantine server
		// crafts from whatever honest state is already visible this step.
		if cfg.View != nil && cfg.Attack == nil {
			cfg.View.Publish(t, theta)
		}
		broadcast(ep, cfg.Attack, cfg.View, transport.KindParams, t, cfg.Workers, theta, cfg.ShardSize)

		// Phase 2: gather a quorum of gradients and update locally. At a
		// sharded layout the aggregation streams: partial distance/median
		// work runs while later shards are still in flight.
		agg, err := qm.aggregate(transport.KindGradient, t, cfg.QuorumGradients, nil, "", cfg.GradRule, cfg.Suspicion)
		if err != nil {
			return nil, fmt.Errorf("server %s step %d: %w", cfg.ID, t, err)
		}
		h.Progress() // gradient quorum made headway this step
		tensor.AXPY(theta, -cfg.LR(t), agg)
		tensor.Put(agg)

		// Phase 3: contraction round across servers.
		if cfg.QuorumParams > 1 && len(cfg.Peers) > 0 {
			broadcast(ep, cfg.Attack, cfg.View, transport.KindPeerParams, t, cfg.Peers, theta, cfg.ShardSize)
			// The node's own θ rides along as input 0 — "its own vector
			// included" without a loopback message — and is recycled once
			// the contracted θ has replaced it.
			prev := theta
			theta, err = qm.aggregate(transport.KindPeerParams, t, cfg.QuorumParams-1, prev, cfg.ID, cfg.ParamRule, nil)
			if err != nil {
				return nil, fmt.Errorf("server %s step %d: %w", cfg.ID, t, err)
			}
			tensor.Put(prev)
		}
		if crafts {
			cfg.View.Pass(t) // this server sends nothing more of step t
		}
		if cfg.Checkpoint != nil && cfg.Checkpoint.Every > 0 && (t+1)%cfg.Checkpoint.Every == 0 {
			ckpt := Checkpoint{ID: cfg.ID, Step: t, Theta: theta, Horizon: qm.col.Horizon}
			if err := ckpt.WriteFile(cfg.Checkpoint.Dir); err != nil {
				return nil, fmt.Errorf("server %s step %d: %w", cfg.ID, t, err)
			}
		}
		h.StepDone(t)
	}
	h.MarkDone()
	return theta, nil
}

// WorkerConfig parameterises one worker node.
type WorkerConfig struct {
	// ID is this node's network identifier.
	ID string
	// Servers lists the parameter-server IDs: gradient broadcast targets
	// and the only senders whose parameter vectors may enter a quorum.
	Servers []string
	// Model is the model this worker computes its gradients on: each step
	// overwrites its parameters and gradient buffers, so its values at
	// the start of the run do not matter, only its architecture. A worker
	// started on its own has it to itself; the workers of one live run
	// share the template, and lease replicas of it (see replicas).
	Model *nn.Sequential
	// Sampler draws this worker's mini-batches (its gradient distribution
	// G^(j); each worker owns an independently seeded sampler).
	Sampler *dataset.Sampler
	// Batch is the mini-batch size.
	Batch int
	// ParamRule aggregates received parameter vectors (the paper's M).
	ParamRule gar.Rule
	// QuorumParams is q, the number of parameter vectors awaited.
	QuorumParams int
	// Steps is the number of learning steps.
	Steps int
	// Timeout bounds each quorum wait; ≤ 0 waits forever.
	Timeout time.Duration
	// Attack, when non-nil, makes this worker Byzantine.
	Attack attack.Attack
	// View mirrors ServerConfig.View for the gradient message class:
	// honest workers publish their gradient each step, omniscient
	// Byzantine workers craft from the set published so far and pass the
	// step once their gradient broadcast is out.
	View *attack.SharedView
	// ShardSize mirrors ServerConfig.ShardSize for the worker's traffic.
	ShardSize int
	// Metrics mirrors ServerConfig.Metrics.
	Metrics *metrics.NodeMetrics

	// replicas is where the loop leases its model from; nil is a list
	// holding Model alone.
	replicas *replicas
}

// replicas is a free list of model replicas that workers lease for one
// gradient each: from SetParamVector, which overwrites every parameter, to
// the end of nn.BatchGradient, which zeroes every gradient buffer before
// accumulating. A replica therefore carries nothing from one lease into the
// next, and the workers of a run need only as many replicas as compute at
// once. The list clones its template only when every replica it holds is
// leased, so it ends the run holding its peak number of concurrent leases;
// a list without a template holds one model and never clones.
type replicas struct {
	template *nn.Sequential
	mu       sync.Mutex
	free     []*nn.Sequential
}

func (r *replicas) lease() *nn.Sequential {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		m := r.free[n-1]
		r.free = r.free[:n-1]
		r.mu.Unlock()
		return m
	}
	r.mu.Unlock()
	return r.template.Clone()
}

func (r *replicas) release(m *nn.Sequential) {
	r.mu.Lock()
	r.free = append(r.free, m)
	r.mu.Unlock()
}

// RunWorker executes the worker loop.
func RunWorker(ep transport.Endpoint, cfg WorkerConfig) error {
	dim := cfg.Model.ParamCount()
	h := cfg.Metrics
	if h == nil {
		h = metrics.NewNodeMetrics()
	}
	models := cfg.replicas
	if models == nil {
		models = &replicas{free: []*nn.Sequential{cfg.Model}}
	}
	qm := newQuorum(ep, dim, cfg.ShardSize, cfg.Timeout, h,
		map[transport.Kind][]string{transport.KindParams: cfg.Servers}, cfg.ParamRule)
	defer qm.col.Advance(math.MaxInt) // what the run left buffered goes back

	_, crafts := cfg.Attack.(attack.Omniscient)
	for t := 0; t < cfg.Steps; t++ {
		qm.col.Advance(t)
		// Phase 1: await a quorum of parameter vectors and aggregate (shard
		// by shard, the moment each shard's quorum fills, when streaming).
		agg, err := qm.aggregate(transport.KindParams, t, cfg.QuorumParams, nil, "", cfg.ParamRule, nil)
		if err != nil {
			return fmt.Errorf("worker %s step %d: %w", cfg.ID, t, err)
		}
		// Estimate the gradient at the aggregated parameters, on a leased
		// replica: the gradient is a vector of its own, so the replica goes
		// back as soon as it is computed.
		model := models.lease()
		if err := model.SetParamVector(agg); err != nil {
			models.release(model)
			return fmt.Errorf("worker %s step %d: %w", cfg.ID, t, err)
		}
		tensor.Put(agg) // the model holds a copy
		xs, labels := cfg.Sampler.Batch(cfg.Batch)
		_, grad := nn.BatchGradient(model, xs, labels)
		models.release(model)

		// Phase 2: broadcast the gradient to every server. Honest workers
		// expose it to the adversary's view first; omniscient Byzantine
		// workers craft from the honest gradients visible so far.
		if cfg.View != nil && cfg.Attack == nil {
			cfg.View.Publish(t, grad)
		}
		broadcast(ep, cfg.Attack, cfg.View, transport.KindGradient, t, cfg.Servers, grad, cfg.ShardSize)
		tensor.Put(grad) // the broadcast only borrowed it
		if crafts {
			cfg.View.Pass(t)
		}
		h.StepDone(t)
	}
	h.MarkDone()
	return nil
}
