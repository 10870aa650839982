package cluster

import (
	"context"
	"fmt"
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
// goroutine per node over an in-process asynchronous network. It is the
// runtime used by integration tests, the failure-injection suite and the
// examples; the deterministic virtual-time engine used for the paper's
// figures lives in internal/core.
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
	// Delay optionally injects per-message delivery delays (asynchrony).
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
	// SkipValidation disables the theoretical bound checks (used by tests
	// that deliberately run illegal deployments, e.g. the vanilla baseline).
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
	// see internal/compress). Honest endpoints are wrapped below the fault
	// injector, so injected duplication, reordering and delay spikes hit
	// already-negotiated compressed streams the way a real network would.
	// Byzantine nodes send raw, mirroring Faults: the adversary's covert
	// network is ideal, and compressing its payloads would perturb its
	// chosen attack vectors; they still expand what their honest peers send
	// them. The zero value disables compression.
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
	if c.Dir == "" {
		return fmt.Errorf("cluster: churn needs a checkpoint directory")
	}
	if cfg.ShardSize > 0 {
		return fmt.Errorf("cluster: churn rejoin needs whole-vector framing, not sharded streaming")
	}
	return nil
}

// Validate checks the deployment against the theoretical requirements of the
// paper (n ≥ 3f+3, 2f+3 ≤ q ≤ n−f for both roles).
func (c *LiveConfig) Validate() error {
	if err := gar.CheckDeployment("server", c.NumServers, c.FServers); err != nil {
		return err
	}
	if err := gar.CheckDeployment("worker", c.NumWorkers, c.FWorkers); err != nil {
		return err
	}
	if err := gar.CheckQuorum("server", c.NumServers, c.FServers, c.quorumServers()); err != nil {
		return err
	}
	if err := gar.CheckQuorum("worker", c.NumWorkers, c.FWorkers, c.quorumWorkers()); err != nil {
		return err
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

// RunLiveContext is RunLive with cancellation: when ctx is cancelled the
// in-process network is torn down, which unblocks every node's quorum wait
// and makes the run return promptly with ctx's error.
func RunLiveContext(ctx context.Context, cfg LiveConfig) (*LiveResult, error) {
	if !cfg.SkipValidation {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Steps <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("cluster: Steps and Batch must be positive")
	}
	if err := cfg.Compression.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Mailbox.Validate(); err != nil {
		return nil, err
	}
	if cfg.Checkpoint != nil && (cfg.Checkpoint.Dir == "" || cfg.Checkpoint.Every < 1) {
		return nil, fmt.Errorf("cluster: checkpointing needs a directory and a positive cadence")
	}
	if cfg.Churn != nil {
		if err := cfg.Churn.validate(&cfg); err != nil {
			return nil, err
		}
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	network := transport.NewChanNetwork(cfg.Delay)
	defer network.Close()
	if err := network.SetMailbox(cfg.Mailbox); err != nil {
		return nil, err
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			network.Close()
		case <-watchDone:
		}
	}()

	rng := tensor.NewRNG(cfg.Seed)
	theta0 := cfg.Model.ParamVector()

	// wrap stacks a node's send/receive path. Honest: compression sits next
	// to the wire (per-link codec state, inbound drop counters bounded by
	// the model dimension), the fault injector above it — so a delayed or
	// duplicated delivery re-enters an already-encoded stream, exactly the
	// composition the TCP runtime exhibits. A bounded mailbox adds couriers
	// on top: the node loop hands frames to per-link bounded outboxes and
	// never blocks on (or is blocked by) a slow link. Byzantine: the codec's
	// receive half only — the node runs the honest receive loop, so it must
	// expand its honest peers' compressed frames, while its own payloads
	// stay raw and unfaulted (the adversary's covert network is ideal by
	// assumption, exactly as in the simulator).
	wrap := func(ep transport.Endpoint, h *metrics.NodeMetrics, honest bool) (transport.Endpoint, error) {
		if cfg.Compression.Enabled() {
			ccfg := cfg.Compression
			if !honest {
				ccfg = compress.Config{} // sends raw, expands inbound
			}
			c, err := transport.NewCompressor(ep, ccfg, len(theta0))
			if err != nil {
				return nil, err
			}
			c.SetMetrics(h)
			ep = c
		}
		if !honest {
			return ep, nil
		}
		ep = cfg.Faults.Wrap(ep)
		if cfg.Mailbox.Bounded() {
			c := transport.NewCouriers(ep, cfg.Mailbox)
			c.SetMetrics(h)
			ep = c
		}
		return ep, nil
	}

	// nodeHandle hands out one registry handle per node and makes it the
	// node's on the network, for every incarnation of the ID.
	nodeHandle := func(id string) *metrics.NodeMetrics {
		h := reg.Node(id)
		network.SetNodeMetrics(id, h)
		return h
	}

	// Omniscient attacks get one shared view per message class: honest
	// nodes' vectors are published to it as they are produced, Byzantine
	// nodes snapshot it before corrupting (see attack.SharedView).
	serverView, workerView := AdversaryViews(
		cfg.FServers, cfg.ServerAttacks, cfg.FWorkers, cfg.WorkerAttacks)

	workerIDs := make([]string, cfg.NumWorkers)
	for j := range workerIDs {
		workerIDs[j] = WorkerID(j)
	}
	serverIDs := make([]string, cfg.NumServers)
	for i := range serverIDs {
		serverIDs[i] = ServerID(i)
	}

	type serverOut struct {
		index int
		theta tensor.Vector
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		outs      []serverOut
		runErrs   []error
		restarted bool
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		runErrs = append(runErrs, err)
	}

	// Bring-up is two-phase: every endpoint is registered and every honest
	// send/receive stack built BEFORE the first node loop starts. Links are
	// lossy with no resend, so a phase-1 broadcast that found its worker
	// not yet registered ("unknown destination") was lost for good and left
	// that worker one vector short of its quorum for the whole timeout.
	var nodes []func() // node loops, started together below

	// Servers.
	for i := 0; i < cfg.NumServers; i++ {
		ep, err := network.Register(serverIDs[i])
		if err != nil {
			return nil, err
		}
		peers := make([]string, 0, cfg.NumServers-1)
		for k, id := range serverIDs {
			if k != i {
				peers = append(peers, id)
			}
		}
		scfg := ServerConfig{
			ID:              serverIDs[i],
			Workers:         workerIDs,
			Peers:           peers,
			Init:            theta0,
			GradRule:        cfg.gradRule(),
			ParamRule:       cfg.paramRule(),
			QuorumGradients: cfg.quorumWorkers(),
			QuorumParams:    cfg.quorumServers(),
			Steps:           cfg.Steps,
			LR:              cfg.lr(),
			Timeout:         cfg.timeout(),
			Attack:          cfg.ServerAttacks[i],
			Momentum:        cfg.Momentum,
			View:            serverView,
			ShardSize:       cfg.ShardSize,
			Metrics:         nodeHandle(serverIDs[i]),
		}
		if scfg.Attack == nil {
			scfg.Suspicion = cfg.Suspicion // honest servers report exclusions
			scfg.Trace = cfg.Trace
			scfg.Checkpoint = cfg.Checkpoint
		}
		idx := i
		churned := cfg.Churn != nil && i == cfg.Churn.Server
		sep, err := wrap(ep, scfg.Metrics, scfg.Attack == nil)
		if err != nil {
			return nil, err
		}
		if churned {
			// The churn victim's first incarnation is brought up like any
			// other node; it is killed mid-run and re-registers the same ID
			// for the recovery leg on its own.
			nodes = append(nodes, func() {
				theta, again, err := runChurnServer(network, sep, scfg, cfg.Churn, wrap)
				mu.Lock()
				restarted = again
				mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				outs = append(outs, serverOut{index: idx, theta: theta})
				mu.Unlock()
			})
			continue
		}
		nodes = append(nodes, func() {
			defer sep.Close()
			theta, err := RunServer(sep, scfg)
			if err != nil {
				fail(err)
				return
			}
			if scfg.Attack == nil {
				mu.Lock()
				outs = append(outs, serverOut{index: idx, theta: theta})
				mu.Unlock()
			}
		})
	}

	// Workers.
	for j := 0; j < cfg.NumWorkers; j++ {
		ep, err := network.Register(workerIDs[j])
		if err != nil {
			return nil, err
		}
		wcfg := WorkerConfig{
			ID:           workerIDs[j],
			Servers:      serverIDs,
			Model:        cfg.Model.Clone(),
			Sampler:      dataset.NewSampler(cfg.Train, rng.Split()),
			Batch:        cfg.Batch,
			ParamRule:    cfg.paramRule(),
			QuorumParams: cfg.quorumServers(),
			Steps:        cfg.Steps,
			Timeout:      cfg.timeout(),
			Attack:       cfg.WorkerAttacks[j],
			View:         workerView,
			ShardSize:    cfg.ShardSize,
			Metrics:      nodeHandle(workerIDs[j]),
		}
		wep, err := wrap(ep, wcfg.Metrics, wcfg.Attack == nil)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, func() {
			defer wep.Close()
			if err := RunWorker(wep, wcfg); err != nil {
				fail(err)
			}
		})
	}

	wg.Add(len(nodes))
	for _, run := range nodes {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: run cancelled: %w", err)
	}
	if len(runErrs) > 0 {
		return nil, fmt.Errorf("cluster: run failed: %w (and %d more)", runErrs[0], len(runErrs)-1)
	}

	res := &LiveResult{ServerParams: make(map[int]tensor.Vector, len(outs)), ChurnRestarted: restarted}
	// Settle in-flight delayed deliveries before reading the counters (the
	// deferred Close is then a no-op).
	network.Close()
	res.Totals = reg.Totals()
	finals := make([]tensor.Vector, 0, len(outs))
	for _, o := range outs {
		res.ServerParams[o.index] = o.theta
		finals = append(finals, o.theta)
	}
	if len(finals) == 0 {
		return nil, fmt.Errorf("cluster: no honest server completed")
	}
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		return nil, err
	}
	res.Final = final
	return res, nil
}

// runChurnServer is one server's crash-recovery cycle inside a live run:
// run with periodic checkpointing until the live step counter reaches the
// kill step, tear the node down mid-protocol (mailbox closed, ID released),
// then re-register the same ID, restore the newest on-disk checkpoint and
// rejoin by adopting the median of a live peer quorum (ServerConfig.Rejoin).
// Returns the final parameters of whichever incarnation finished the run and
// whether the restart leg actually ran (false when the victim outran the
// kill — possible on tiny runs that finish before the watcher fires).
func runChurnServer(network *transport.ChanNetwork, sep transport.Endpoint, scfg ServerConfig,
	churn *LiveChurn, wrap func(transport.Endpoint, *metrics.NodeMetrics, bool) (transport.Endpoint, error)) (tensor.Vector, bool, error) {

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
	ep2, err := network.Register(scfg.ID)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: churn restart of %s: %w", scfg.ID, err)
	}
	rcfg := scfg
	rcfg.Restore = &ckpt
	rcfg.Rejoin = true
	sep2, err := wrap(ep2, vm, true)
	if err != nil {
		return nil, false, err
	}
	defer sep2.Close()
	theta, err := RunServer(sep2, rcfg)
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
