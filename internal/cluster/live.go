package cluster

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

// LiveConfig describes a full deployment run with real concurrency: one
// goroutine per node over an asynchronous mesh — in-process channels, or
// loopback TCP sockets with TCP set. It is the runtime behind guanyu.Live,
// the integration tests, the failure-injection suite and the examples; the
// deterministic virtual-time engine used for the paper's figures lives in
// internal/core.
type LiveConfig struct {
	// Model is the template model; every worker gets an independent clone,
	// and its initial parameters seed every server's θ₀.
	Model *nn.Sequential
	// Train supplies the workers' mini-batches.
	Train *dataset.Dataset
	// NumServers and FServers are n and f (declared) for parameter servers.
	NumServers, FServers int
	// NumWorkers and FWorkers are n̄ and f̄ (declared) for workers.
	NumWorkers, FWorkers int
	// QuorumServers (q) and QuorumWorkers (q̄) override the default minimum
	// quorums 2f+3 when positive.
	QuorumServers, QuorumWorkers int
	// ServerAttacks maps server index → behaviour for actually-Byzantine
	// servers. Nil entries are honest.
	ServerAttacks map[int]attack.Attack
	// WorkerAttacks maps worker index → behaviour.
	WorkerAttacks map[int]attack.Attack
	// Steps is the number of learning steps.
	Steps int
	// Batch is the mini-batch size.
	Batch int
	// LR returns the learning rate for a step; nil defaults to 0.05/(1+t/200).
	LR func(step int) float64
	// Rule aggregates gradients server-side; nil defaults to
	// MultiKrum{F: FWorkers}.
	Rule gar.Rule
	// ParamRule aggregates parameter vectors; nil defaults to Median.
	ParamRule gar.Rule
	// TCP runs every node on its own loopback socket (binary-framed,
	// hello-authenticated; see transport.TCPNode) instead of the in-process
	// channel network — the paper's testbed in one process. Delay and Churn
	// are channel-only.
	TCP bool
	// Delay optionally injects per-message delivery delays (asynchrony)
	// into the channel network.
	Delay transport.DelayFunc
	// Faults optionally injects seeded network faults (drops, duplication,
	// reordering, delay spikes, temporary partitions) into every node's
	// send path; composes with Delay.
	Faults *transport.FaultInjector
	// Timeout bounds each quorum wait. 0 defaults to 30 s; negative waits
	// forever.
	Timeout time.Duration
	// Seed drives all per-node generators.
	Seed uint64
	// SkipValidation skips gar.CheckRole for both roles — n ≥ 3f+3, the
	// quorum range 2f+3 ≤ q ≤ n−f, attacked indices inside the population
	// and at least one honest node — and nothing else Validate checks (used
	// by tests that deliberately run illegal deployments, e.g. the vanilla
	// baseline).
	SkipValidation bool
	// Suspicion, when non-nil, is shared by all honest servers to
	// accumulate per-worker exclusion statistics (requires a selective
	// gradient rule such as the default Multi-Krum).
	Suspicion *stats.Suspicion
	// Trace, when non-nil, records protocol events from every server.
	Trace *trace.Recorder
	// Momentum, when positive, enables heavy-ball momentum on server
	// updates (extension; see ServerConfig.Momentum).
	Momentum float64
	// ShardSize, when positive, streams every vector as coordinate shards
	// of that many coordinates and aggregates inbound shards incrementally
	// (see ServerConfig.ShardSize). Zero keeps whole-vector framing.
	ShardSize int
	// Compression applies wire payload compression to every honest node's
	// traffic (float32 truncation, delta frames, or top-k sparsification —
	// see internal/compress), in the layer next to the wire; Byzantine
	// nodes send raw and only expand what their honest peers send them
	// (mesh.go has the stack and the reasons). The zero value disables it.
	Compression compress.Config
	// Mailbox bounds every node's inbound mailbox per sender and, when
	// bounded, routes every honest node's sends through per-link courier
	// goroutines with equally bounded outboxes (see transport.Couriers) —
	// the actor runtime described in DESIGN.md. A fast or Byzantine peer
	// can then buffer at most Cap frames at each receiver and each honest
	// sender queues at most Cap frames per link, so a node's worst-case
	// buffering is O(n·Cap) regardless of traffic rates. The zero value
	// keeps the unbounded mailboxes of the pure asynchronous model, and
	// overflow-free schedules are byte-for-byte unaffected by the policy
	// chosen. Drops are counted in LiveResult.Totals (DroppedOverflow
	// inbound, CourierDropped outbound).
	Mailbox transport.MailboxConfig
	// Metrics is the registry every node's handle comes from: every
	// mailbox, courier, compressor and collector counts into its node's
	// handle, and node loops publish step/liveness progress — what a
	// /metrics + /healthz listener scrapes mid-run. Nil means a private
	// registry, read once for LiveResult.Totals.
	Metrics *metrics.Registry
	// Checkpoint, when non-nil, makes every honest server persist its
	// protocol state into Checkpoint.Dir every Checkpoint.Every steps
	// (atomic write-then-rename, one file per server ID — see
	// CheckpointSpec). Byzantine servers never checkpoint: recovery is an
	// honest-node concern.
	Checkpoint *CheckpointSpec
	// Churn, when non-nil, puts one honest server through a live
	// crash-recovery cycle: it checkpoints periodically, is killed
	// mid-protocol once it reaches KillAtStep, and restarts under the same
	// ID from its newest on-disk checkpoint with median rejoin. The rest of
	// the deployment rides the outage on its quorum slack. The victim uses
	// the churn cycle's own checkpoint cadence, independent of Checkpoint.
	Churn *LiveChurn
}

// LiveChurn configures the kill/restart cycle of LiveConfig.Churn.
type LiveChurn struct {
	// Server is the honest server index to kill and restart.
	Server int
	// KillAtStep kills the victim once its live step counter reaches this
	// step (0 < KillAtStep < Steps).
	KillAtStep int
	// CheckpointEvery is the victim's checkpoint cadence in steps; it must
	// be ≤ KillAtStep so at least one checkpoint is on disk at the kill.
	CheckpointEvery int
	// Dir is the victim's checkpoint directory.
	Dir string
}

// validate checks the churn cycle against the deployment.
func (c *LiveChurn) validate(cfg *LiveConfig) error {
	if c.Dir == "" {
		return fmt.Errorf("cluster: churn needs a checkpoint directory")
	}
	if c.Server < 0 || c.Server >= cfg.NumServers {
		return fmt.Errorf("cluster: churn targets server %d of %d", c.Server, cfg.NumServers)
	}
	if cfg.ServerAttacks[c.Server] != nil {
		return fmt.Errorf("cluster: churn victim %d is Byzantine; only honest servers churn", c.Server)
	}
	if c.KillAtStep <= 0 || c.KillAtStep >= cfg.Steps {
		return fmt.Errorf("cluster: churn kill step %d outside (0, %d)", c.KillAtStep, cfg.Steps)
	}
	if c.CheckpointEvery < 1 || c.CheckpointEvery > c.KillAtStep {
		return fmt.Errorf("cluster: churn checkpoint cadence %d outside [1, kill step %d]", c.CheckpointEvery, c.KillAtStep)
	}
	if cfg.TCP {
		return fmt.Errorf("cluster: churn drives the channel mesh; TCP nodes restart as real processes")
	}
	return nil
}

// Validate is everything RunLiveContext refuses before it opens an
// endpoint: each role against the paper's legality section (gar.CheckRole,
// unless SkipValidation), then the run's own settings.
func (c *LiveConfig) Validate() error {
	if !c.SkipValidation {
		if err := gar.CheckRole("server", c.NumServers, c.FServers, c.QuorumServers, maps.Keys(c.ServerAttacks)); err != nil {
			return err
		}
		if err := gar.CheckRole("worker", c.NumWorkers, c.FWorkers, c.QuorumWorkers, maps.Keys(c.WorkerAttacks)); err != nil {
			return err
		}
	}
	if c.Steps <= 0 || c.Batch <= 0 {
		return fmt.Errorf("cluster: Steps and Batch must be positive")
	}
	if err := c.Compression.Validate(); err != nil {
		return err
	}
	if err := c.Mailbox.Validate(); err != nil {
		return err
	}
	if c.Checkpoint != nil {
		if err := c.Checkpoint.Validate(); err != nil {
			return err
		}
	}
	if c.TCP && c.Delay != nil {
		return fmt.Errorf("cluster: Delay is injected by the channel mesh; it has no effect over TCP")
	}
	if c.Churn != nil {
		return c.Churn.validate(c)
	}
	return nil
}

func (c *LiveConfig) quorumServers() int {
	if c.QuorumServers > 0 {
		return c.QuorumServers
	}
	return gar.MinQuorum(c.FServers)
}

func (c *LiveConfig) quorumWorkers() int {
	if c.QuorumWorkers > 0 {
		return c.QuorumWorkers
	}
	return gar.MinQuorum(c.FWorkers)
}

func (c *LiveConfig) lr() func(int) float64 {
	if c.LR != nil {
		return c.LR
	}
	return func(t int) float64 { return 0.05 / (1 + float64(t)/200) }
}

func (c *LiveConfig) gradRule() gar.Rule {
	if c.Rule != nil {
		return c.Rule
	}
	return gar.MultiKrum{F: c.FWorkers}
}

func (c *LiveConfig) paramRule() gar.Rule {
	if c.ParamRule != nil {
		return c.ParamRule
	}
	return gar.Median{}
}

func (c *LiveConfig) timeout() time.Duration {
	if c.Timeout == 0 {
		return 30 * time.Second
	}
	return c.Timeout
}

// ServerID and WorkerID name the nodes of a deployment; the naming scheme is
// shared with the virtual-time engine so logs and attacks line up.
func ServerID(i int) string { return fmt.Sprintf("ps%d", i) }

// WorkerID returns the network ID of worker j.
func WorkerID(j int) string { return fmt.Sprintf("wrk%d", j) }

// LiveResult holds the outcome of a live run.
type LiveResult struct {
	// ServerParams maps honest server index → final parameter vector.
	ServerParams map[int]tensor.Vector
	// Final is the coordinate-wise median of the honest servers' final
	// vectors — the model θ̄ the paper's convergence statement (Eq. 1) is
	// about.
	Final tensor.Vector
	// Totals is the registry's deployment-wide sum of every counter once
	// all nodes have finished and in-flight deliveries have settled — the
	// same numbers a final /metrics scrape adds up to. DroppedOverflow and
	// CourierDropped are zero whenever the schedule never overflowed (in
	// particular always with the unbounded default); DroppedClosed is the
	// tail traffic of senders outliving receivers.
	Totals metrics.Snapshot
	// ChurnRestarted reports that the configured churn victim was actually
	// killed and came back through the checkpoint-restore + rejoin leg
	// (false when the run outran the kill, or no churn was configured).
	ChurnRestarted bool
}

// RunLive executes the deployment to completion and returns the honest
// servers' final models. Every node runs in its own goroutine; the call
// blocks until all have finished or one fails.
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	return RunLiveContext(context.Background(), cfg)
}

// plan is what every node's config is cut from: the deployment, the
// registry its handles come from, its node IDs by index, θ₀, the adversary's
// shared views and the generator the workers' samplers are split off, in
// index order.
type plan struct {
	*LiveConfig
	reg              *metrics.Registry
	servers, workers []string
	theta0           tensor.Vector
	// Omniscient attacks get one shared view per message class: honest
	// nodes' vectors are published to it as they are produced, Byzantine
	// nodes snapshot it before corrupting (see attack.SharedView).
	serverView, workerView *attack.SharedView
	rng                    *tensor.RNG
}

func (c *LiveConfig) plan() *plan {
	p := &plan{LiveConfig: c, reg: c.Metrics, theta0: c.Model.ParamVector(), rng: tensor.NewRNG(c.Seed)}
	if p.reg == nil {
		p.reg = metrics.NewRegistry()
	}
	for i := 0; i < c.NumServers; i++ {
		p.servers = append(p.servers, ServerID(i))
	}
	for j := 0; j < c.NumWorkers; j++ {
		p.workers = append(p.workers, WorkerID(j))
	}
	p.serverView, p.workerView = AdversaryViews(c.FServers, c.ServerAttacks, c.FWorkers, c.WorkerAttacks)
	return p
}

// server is server i's config.
func (p *plan) server(i int) ServerConfig {
	peers := make([]string, 0, len(p.servers)-1)
	peers = append(append(peers, p.servers[:i]...), p.servers[i+1:]...)
	scfg := ServerConfig{
		ID:              p.servers[i],
		Workers:         p.workers,
		Peers:           peers,
		Init:            p.theta0,
		GradRule:        p.gradRule(),
		ParamRule:       p.paramRule(),
		QuorumGradients: p.quorumWorkers(),
		QuorumParams:    p.quorumServers(),
		Steps:           p.Steps,
		LR:              p.lr(),
		Timeout:         p.timeout(),
		Attack:          p.ServerAttacks[i],
		Momentum:        p.Momentum,
		View:            p.serverView,
		ShardSize:       p.ShardSize,
		Metrics:         p.reg.Node(p.servers[i]),
	}
	if scfg.Attack == nil {
		scfg.Suspicion = p.Suspicion // honest servers report exclusions
		scfg.Trace = p.Trace
		scfg.Checkpoint = p.Checkpoint
	}
	return scfg
}

// worker is worker j's config; call it once per worker, in index order.
func (p *plan) worker(j int) WorkerConfig {
	return WorkerConfig{
		ID:           p.workers[j],
		Servers:      p.servers,
		Model:        p.Model.Clone(),
		Sampler:      dataset.NewSampler(p.Train, p.rng.Split()),
		Batch:        p.Batch,
		ParamRule:    p.paramRule(),
		QuorumParams: p.quorumServers(),
		Steps:        p.Steps,
		Timeout:      p.timeout(),
		Attack:       p.WorkerAttacks[j],
		View:         p.workerView,
		ShardSize:    p.ShardSize,
		Metrics:      p.reg.Node(p.workers[j]),
	}
}

// RunLiveContext is RunLive with cancellation: when ctx is cancelled the
// mesh is torn down, which unblocks every node's quorum wait and makes the
// run return promptly with ctx's error. It is the one launcher: the same
// bring-up, node stack (see mesh.go), fan-out and teardown run over
// in-process channels and, with cfg.TCP, over loopback sockets.
func RunLiveContext(ctx context.Context, cfg LiveConfig) (*LiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.plan()
	m, err := cfg.mesh()
	if err != nil {
		return nil, err
	}
	defer m.close()

	// open brings one node up to the endpoint its loop runs on, counting
	// into the node's registry handle — for every incarnation of the ID.
	open := func(id string, honest bool) (transport.Endpoint, error) {
		h := p.reg.Node(id)
		comp := cfg.Compression
		if !honest {
			comp = compress.Config{}
		}
		ep, err := m.open(id, comp, h)
		if err == nil && honest {
			ep = StackEndpoint(ep, cfg.Faults, cfg.Mailbox, h)
		}
		return ep, err
	}

	var (
		finals    = make([]tensor.Vector, cfg.NumServers) // honest server i's θ, set by its own loop
		restarted bool                                    // set by the churn victim's loop
	)

	// Bring-up is two-phase: every endpoint is opened and every honest
	// stack built BEFORE the first node loop starts. Links are lossy with
	// no resend, so a phase-1 broadcast that found its worker not yet
	// registered ("unknown destination") was lost for good and left that
	// worker one vector short of its quorum for the whole timeout.
	type node struct {
		ep   transport.Endpoint
		loop func() error
	}
	var nodes []node
	for i := range p.servers {
		honest := cfg.ServerAttacks[i] == nil
		ep, err := open(p.servers[i], honest)
		if err != nil {
			return nil, err
		}
		scfg := p.server(i)
		run := func() (tensor.Vector, error) { return RunServer(ep, scfg) }
		if cfg.Churn != nil && i == cfg.Churn.Server {
			// The churn victim's first incarnation is brought up like any
			// other node; it is killed mid-run and re-registers the same ID
			// for the recovery leg on its own.
			run = func() (theta tensor.Vector, err error) {
				reopen := func() (transport.Endpoint, error) { return open(scfg.ID, true) }
				theta, restarted, err = runChurnServer(m.(*chanMesh).net, ep, scfg, cfg.Churn, reopen)
				return theta, err
			}
		}
		nodes = append(nodes, node{ep, func() error {
			theta, err := run()
			if err == nil && honest {
				finals[i] = theta
			}
			return err
		}})
	}
	for j := range p.workers {
		ep, err := open(p.workers[j], cfg.WorkerAttacks[j] == nil)
		if err != nil {
			return nil, err
		}
		wcfg := p.worker(j)
		nodes = append(nodes, node{ep, func() error { return RunWorker(ep, wcfg) }})
	}
	// From here on the mesh is closed by whoever needs every quorum wait
	// unblocked: cancellation, the first node to fail, or the end of the run.
	stop := context.AfterFunc(ctx, m.close)
	defer stop()

	// A node's loop returning and its endpoint being closed are counted
	// apart: closing flushes what the fault injector held back and what the
	// couriers still queue, which a peer still in its last quorum wait may
	// need — and which nobody needs once every loop has returned, so the
	// mesh goes down then and cuts the remaining flushes short.
	var (
		loops, flushes sync.WaitGroup
		mu             sync.Mutex
		runErrs        []error
	)
	loops.Add(len(nodes))
	flushes.Add(len(nodes))
	for _, n := range nodes {
		go func() {
			defer flushes.Done()
			defer n.ep.Close()
			defer loops.Done()
			if err := n.loop(); err != nil {
				mu.Lock()
				runErrs = append(runErrs, err)
				first := len(runErrs) == 1
				mu.Unlock()
				if first {
					// Fail fast: the run is lost, so no other node sits out
					// its quorum timeout; what the teardown makes the others
					// report lands behind this error.
					m.close()
				}
			}
		}()
	}
	loops.Wait()
	m.close() // also settles in-flight delayed deliveries before the counters are read
	flushes.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: run cancelled: %w", err)
	}
	if len(runErrs) > 0 {
		return nil, fmt.Errorf("cluster: run failed: %w (and %d more)", runErrs[0], len(runErrs)-1)
	}
	res := &LiveResult{ServerParams: make(map[int]tensor.Vector), Totals: p.reg.Totals(), ChurnRestarted: restarted}
	var vecs []tensor.Vector
	for i, theta := range finals {
		if theta != nil {
			res.ServerParams[i] = theta
			vecs = append(vecs, theta)
		}
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("cluster: no honest server completed")
	}
	if res.Final, err = (gar.Median{}).Aggregate(vecs); err != nil {
		return nil, err
	}
	return res, nil
}

// runChurnServer is one server's crash-recovery cycle inside a live run:
// run with periodic checkpointing until the live step counter reaches the
// kill step, tear the node down mid-protocol (mailbox closed, ID released),
// then re-register the same ID, restore the newest on-disk checkpoint and
// rejoin by adopting the median of a live peer quorum (ServerConfig.Rejoin).
// Returns the final parameters of whichever incarnation finished the run and
// whether the restart leg actually ran (false when the victim outran the
// kill — possible on tiny runs that finish before the watcher fires). The
// launcher closes sep; the second incarnation's endpoint is closed here.
func runChurnServer(network *transport.ChanNetwork, sep transport.Endpoint, scfg ServerConfig,
	churn *LiveChurn, reopen func() (transport.Endpoint, error)) (tensor.Vector, bool, error) {

	vm := scfg.Metrics // the kill trigger watches the victim's live step gauge
	scfg.Checkpoint = &CheckpointSpec{Dir: churn.Dir, Every: churn.CheckpointEvery}

	done := make(chan struct{})
	var (
		firstTheta tensor.Vector
		firstErr   error
	)
	go func() {
		defer close(done)
		firstTheta, firstErr = RunServer(sep, scfg)
	}()

	// Kill trigger: poll the victim's live step counter, bounded by the
	// worst-case time the quorum discipline allows for reaching the kill
	// step (one full timeout per step).
	//lint:allow-clock the kill deadline bounds a wall-clock wait, like quorum timeouts
	deadline := time.Now().Add(time.Duration(churn.KillAtStep+1) * scfg.Timeout)
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for vm.LastStep() < churn.KillAtStep {
		//lint:allow-clock see deadline above
		if time.Now().After(deadline) {
			network.Unregister(scfg.ID)
			sep.Close()
			<-done
			return nil, false, fmt.Errorf("cluster: churn victim %s never reached kill step %d", scfg.ID, churn.KillAtStep)
		}
		select {
		case <-done:
			// The run ended before the kill fired (tiny runs, or a failure
			// elsewhere tearing the network down): no restart to perform.
			return firstTheta, false, firstErr
		case <-tick.C:
		}
	}
	network.Unregister(scfg.ID) // the crash: mailbox dies, ID is released
	sep.Close()
	<-done
	if firstErr == nil {
		// The victim outran the kill and finished the whole run; its final
		// parameters already stand.
		return firstTheta, false, nil
	}

	// Recovery: same ID, newest checkpoint, median rejoin.
	ckpt, err := LoadCheckpoint(churn.Dir, scfg.ID)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: churn restart of %s: %w", scfg.ID, err)
	}
	sep2, err := reopen()
	if err != nil {
		return nil, false, fmt.Errorf("cluster: churn restart of %s: %w", scfg.ID, err)
	}
	defer sep2.Close()
	scfg.Restore = &ckpt
	scfg.Rejoin = true
	theta, err := RunServer(sep2, scfg)
	if err != nil {
		return nil, true, fmt.Errorf("cluster: churned server %s failed after restart: %w", scfg.ID, err)
	}
	return theta, true, nil
}

// AdversaryViews builds the shared omniscient views for an in-process
// deployment — one per message class, and only when some Byzantine node can
// actually use one (publishing costs honest nodes a clone per step
// otherwise). The TCP-in-one-process runtime shares them too; true
// multi-process deployments run without (see ServerConfig.View).
func AdversaryViews(fServers int, serverAttacks map[int]attack.Attack,
	fWorkers int, workerAttacks map[int]attack.Attack) (serverView, workerView *attack.SharedView) {
	if anyOmniscient(serverAttacks) {
		serverView = attack.NewSharedView(fServers, len(serverAttacks))
	}
	if anyOmniscient(workerAttacks) {
		workerView = attack.NewSharedView(fWorkers, len(workerAttacks))
	}
	return serverView, workerView
}

func anyOmniscient(attacks map[int]attack.Attack) bool {
	for _, a := range attacks {
		if _, ok := a.(attack.Omniscient); ok {
			return true
		}
	}
	return false
}
