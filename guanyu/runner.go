package guanyu

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	igar "repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
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

func (simRunner) Run(ctx context.Context, d *Deployment) (*Result, error) {
	mode := core.ModeGuanYu
	if d.vanilla {
		mode = core.ModeVanilla
	}
	cfg := core.Config{
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
		Momentum:      d.momentum,
		Rule:          d.gradRule(),
		ParamRule:     d.paramRule(),
		EvalEvery:     d.evalEvery,
		EvalExamples:  d.evalExamples,
		AlignEvery:    d.alignEvery,
		AlignAfter:    d.alignAfter,
		Seed:          d.seed,
	}
	cfg.DisableServerExchange = d.noExchange
	cfg.Cost.OptimizedRuntime = d.optimized
	cfg.Faults = d.faults
	cfg.Compression = d.compression
	res, err := core.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Runtime:       Sim.String(),
		Curve:         res.Curve,
		Alignments:    res.Alignments,
		Final:         res.Final,
		FinalAccuracy: res.FinalAccuracy,
		VirtualTime:   res.VirtualTime,
		Updates:       res.Updates,
	}, nil
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
	var (
		final        tensor.Vector
		serverParams map[int]tensor.Vector
		restarted    bool
		err          error
	)
	if d.tcp {
		final, serverParams, err = runLiveTCP(ctx, d, reg)
	} else {
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
			Momentum:      d.momentum,
			Rule:          d.gradRule(),
			ParamRule:     d.paramRule(),
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
		var res *cluster.LiveResult
		res, err = cluster.RunLiveContext(ctx, cfg)
		if err == nil {
			final, serverParams = res.Final, res.ServerParams
			restarted = res.ChurnRestarted
		}
	}
	if err != nil {
		return nil, err
	}
	// Every node goroutine (and courier flush) is done: the registry's
	// totals are final, and equal what a last /metrics scrape sums to.
	drops := reg.Totals()
	out := &Result{
		Runtime:             Live.String(),
		Final:               final,
		ServerParams:        serverParams,
		Updates:             d.steps,
		WallTime:            time.Since(start),
		DroppedFuture:       drops.DroppedFuture,
		DroppedMalformed:    drops.DroppedMalformed,
		ForgedDropped:       drops.ForgedDropped,
		DroppedUnnegotiated: drops.DroppedUnnegotiated,
		DroppedUnadmitted:   drops.DroppedUnadmitted,
		DroppedRoster:       drops.DroppedRoster,
		DroppedOverflow:     drops.DroppedOverflow,
		CourierDropped:      drops.CourierDropped,
		DroppedClosed:       drops.DroppedClosed,
		ChurnRestarted:      restarted,
	}
	if d.workload.Test != nil {
		eval := d.workload.Model.Clone()
		if err := eval.SetParamVector(final); err != nil {
			return nil, err
		}
		out.FinalAccuracy = nn.Accuracy(eval, d.workload.Test.X, d.workload.Test.Labels)
	}
	return out, nil
}

// heldOpen is a node's socket as its loop sees it: Close is the deferred
// closeAll's job, once every loop has returned. A loop that finished early
// (one step is enough) must still accept the connections of peers whose
// quorums it was not part of — their first dial to a closed listener sits
// out the transport's cold-start back-off, once per finished peer.
type heldOpen struct{ transport.Endpoint }

func (heldOpen) Close() error { return nil }

// runLiveTCP executes the deployment as one node per goroutine over real
// loopback TCP sockets — the in-process equivalent of the paper's testbed,
// where every node is its own OS process (see RunNode for that shape).
// Every node counts into reg, so a WithMetricsAddr scraper watches the
// run live and the caller reads the end-of-run totals from it.
func runLiveTCP(ctx context.Context, d *Deployment, reg *metrics.Registry) (
	tensor.Vector, map[int]tensor.Vector, error) {
	n := d.numServers + d.numWorkers
	serverIDs := make([]string, d.numServers)
	for i := range serverIDs {
		serverIDs[i] = cluster.ServerID(i)
	}
	workerIDs := make([]string, d.numWorkers)
	for j := range workerIDs {
		workerIDs[j] = cluster.WorkerID(j)
	}

	// Byzantine nodes keep raw framing and a legacy hello: compression is an
	// honest-traffic concern (the covert network is ideal by assumption),
	// and an uncompressing peer interoperates by construction.
	byzantine := make(map[string]bool, len(d.serverAttacks)+len(d.workerAttacks))
	for i := range d.serverAttacks {
		byzantine[cluster.ServerID(i)] = true
	}
	for j := range d.workerAttacks {
		byzantine[cluster.WorkerID(j)] = true
	}
	dim := d.workload.Model.ParamCount()

	// Start every listener on an ephemeral port, then exchange the address
	// book — the bootstrap a deployment tool would perform.
	nodes := make(map[string]*transport.TCPNode, n)
	addrs := make(map[string]string, n)
	closeAll := func() {
		for _, node := range nodes {
			node.Close()
		}
	}
	defer closeAll()
	for _, id := range append(append([]string{}, serverIDs...), workerIDs...) {
		node, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			return nil, nil, fmt.Errorf("guanyu: listen %s: %w", id, err)
		}
		if d.compression.Enabled() && !byzantine[id] {
			// Before AddPeer: the capability mask rides the hello frame.
			if err := node.SetCompression(d.compression, dim); err != nil {
				node.Close()
				return nil, nil, fmt.Errorf("guanyu: compression %s: %w", id, err)
			}
		}
		if d.mailbox.Bounded() {
			// Inbound bounding is each receiver's own defense, so every node —
			// Byzantine included — gets it, matching the in-process runtime.
			if err := node.SetMailbox(d.mailbox); err != nil {
				node.Close()
				return nil, nil, fmt.Errorf("guanyu: mailbox %s: %w", id, err)
			}
		}
		// Attach the registry handle before any peer can connect, so the
		// live counters are complete from the first frame; the address
		// rides /metrics as guanyu_node_info{node,addr}.
		h := reg.Node(id)
		node.SetMetrics(h)
		h.SetAddr(node.Addr())
		nodes[id] = node
		addrs[id] = node.Addr()
	}
	for _, node := range nodes {
		for id, addr := range addrs {
			if id != node.ID() {
				if err := node.AddPeer(id, addr); err != nil {
					return nil, nil, fmt.Errorf("guanyu: peer %s→%s: %w", node.ID(), id, err)
				}
			}
		}
	}

	// Cancellation tears down every socket, unblocking all quorum waits.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			closeAll()
		case <-watchDone:
		}
	}()

	theta0 := d.workload.Model.ParamVector()
	rng := tensor.NewRNG(d.seed)
	timeout := d.timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	lr := d.lr
	if lr == nil {
		lr = InverseTimeLR(0.05, 200)
	}

	serverView, workerView := cluster.AdversaryViews(
		d.fServers, d.serverAttacks, d.fWorkers, d.workerAttacks)

	type serverOut struct {
		index int
		theta tensor.Vector
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		outs    []serverOut
		runErrs []error
	)
	for i := 0; i < d.numServers; i++ {
		peers := make([]string, 0, d.numServers-1)
		for k, id := range serverIDs {
			if k != i {
				peers = append(peers, id)
			}
		}
		scfg := cluster.ServerConfig{
			ID:              serverIDs[i],
			Workers:         workerIDs,
			Peers:           peers,
			Init:            theta0,
			GradRule:        d.gradRule(),
			ParamRule:       d.paramRule(),
			QuorumGradients: d.quorumWorkers(),
			QuorumParams:    d.quorumServers(),
			Steps:           d.steps,
			LR:              lr,
			Timeout:         timeout,
			Attack:          d.serverAttacks[i],
			Momentum:        d.momentum,
			View:            serverView,
			ShardSize:       d.shardSize,
			Metrics:         reg.Node(serverIDs[i]),
		}
		if scfg.Attack == nil {
			scfg.Suspicion = d.suspicion
			if d.checkpointDir != "" {
				scfg.Checkpoint = &cluster.CheckpointSpec{Dir: d.checkpointDir, Every: d.checkpointEvery}
			}
		}
		idx := i
		var sep transport.Endpoint = heldOpen{nodes[scfg.ID]}
		if scfg.Attack == nil {
			// Faults hit honest traffic only (the adversary's covert network
			// is ideal, as in the simulator). Bounded deployments add per-link
			// couriers on top, so the node loop never blocks on a slow link.
			sep = d.faults.Wrap(sep)
			if d.mailbox.Bounded() {
				c := transport.NewCouriers(sep, d.mailbox)
				c.SetMetrics(scfg.Metrics)
				sep = c
			}
		}
		wg.Add(1)
		go func() {
			// Closing the wrappers flushes reorder-held, delay-spiked and
			// courier-queued messages; the sockets under them stay up
			// (heldOpen) until the deferred closeAll.
			defer sep.Close()
			defer wg.Done()
			theta, err := cluster.RunServer(sep, scfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				runErrs = append(runErrs, err)
				return
			}
			if scfg.Attack == nil {
				outs = append(outs, serverOut{index: idx, theta: theta})
			}
		}()
	}
	for j := 0; j < d.numWorkers; j++ {
		wcfg := cluster.WorkerConfig{
			ID:           workerIDs[j],
			Servers:      serverIDs,
			Model:        d.workload.Model.Clone(),
			Sampler:      dataset.NewSampler(d.workload.Train, rng.Split()),
			Batch:        d.batch,
			ParamRule:    d.paramRule(),
			QuorumParams: d.quorumServers(),
			Steps:        d.steps,
			Timeout:      timeout,
			Attack:       d.workerAttacks[j],
			View:         workerView,
			ShardSize:    d.shardSize,
			Metrics:      reg.Node(workerIDs[j]),
		}
		var wep transport.Endpoint = heldOpen{nodes[wcfg.ID]}
		if wcfg.Attack == nil {
			wep = d.faults.Wrap(wep)
			if d.mailbox.Bounded() {
				c := transport.NewCouriers(wep, d.mailbox)
				c.SetMetrics(wcfg.Metrics)
				wep = c
			}
		}
		wg.Add(1)
		go func() {
			defer wep.Close()
			defer wg.Done()
			if err := cluster.RunWorker(wep, wcfg); err != nil {
				mu.Lock()
				runErrs = append(runErrs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("guanyu: live TCP run cancelled: %w", err)
	}
	if len(runErrs) > 0 {
		return nil, nil, fmt.Errorf("guanyu: live TCP run failed: %w (and %d more)",
			runErrs[0], len(runErrs)-1)
	}
	if len(outs) == 0 {
		return nil, nil, fmt.Errorf("guanyu: no honest server completed")
	}
	serverParams := make(map[int]tensor.Vector, len(outs))
	finals := make([]tensor.Vector, 0, len(outs))
	for _, o := range outs {
		serverParams[o.index] = o.theta
		finals = append(finals, o.theta)
	}
	final, err := igar.Median{}.Aggregate(finals)
	if err != nil {
		return nil, nil, err
	}
	return final, serverParams, nil
}
