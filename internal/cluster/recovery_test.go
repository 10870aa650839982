package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestCrashRecoveryOverTCP is the crash-recovery regression: a live TCP
// deployment (6 servers, 6 workers, one sign-flipping Byzantine worker)
// has one honest server killed mid-run — listener and all connections torn
// down — and restarted from its on-disk checkpoint with median rejoin. The
// f=1 server quorum margin carries the cluster through the outage, the
// restarted server catches up to the live step by adopting the
// coordinate-wise median of its peers' contraction-round broadcasts, and
// at the end every honest final (the recovered server's included) must sit
// within contraction distance of the others.
func TestCrashRecoveryOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up 12 TCP listeners and a restart")
	}
	const (
		numServers, fServers = 6, 1
		numWorkers, fWorkers = 6, 1
		steps, batch         = 40, 16
		ckptEvery            = 5
		killAfterStep        = 9 // at least two checkpoints on disk by then
	)
	ckptDir := t.TempDir()
	model, train, test := testProblem(4242)
	theta0 := model.ParamVector()

	ids := make([]string, 0, numServers+numWorkers)
	for i := 0; i < numServers; i++ {
		ids = append(ids, ServerID(i))
	}
	for j := 0; j < numWorkers; j++ {
		ids = append(ids, WorkerID(j))
	}
	nodes := make(map[string]*transport.TCPNode, len(ids))
	for _, id := range ids {
		n, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[id] = n
	}
	addrs := make(map[string]string, len(ids))
	for _, id := range ids {
		addrs[id] = nodes[id].Addr()
	}
	for _, n := range nodes {
		for _, id := range ids {
			if id != n.ID() {
				if err := n.AddPeer(id, addrs[id]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	serverIDs, workerIDs := ids[:numServers], ids[numServers:]
	victim := serverIDs[0]
	rng := tensor.NewRNG(77)

	serverCfg := func(i int) ServerConfig {
		peers := make([]string, 0, numServers-1)
		for k, id := range serverIDs {
			if k != i {
				peers = append(peers, id)
			}
		}
		return ServerConfig{
			ID: serverIDs[i], Workers: workerIDs, Peers: peers,
			Init:     theta0,
			GradRule: gar.MultiKrum{F: fWorkers}, ParamRule: gar.Median{},
			QuorumGradients: gar.MinQuorum(fWorkers),
			QuorumParams:    gar.MinQuorum(fServers),
			Steps:           steps,
			LR:              func(int) float64 { return 0.2 },
			Timeout:         time.Minute,
		}
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		finals []tensor.Vector
		errs   []error
	)
	// The survivors: servers 1..5, all honest.
	for i := 1; i < numServers; i++ {
		ep, scfg := nodes[serverIDs[i]], serverCfg(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			theta, err := RunServer(ep, scfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			finals = append(finals, theta)
		}()
	}
	for j := 0; j < numWorkers; j++ {
		wcfg := WorkerConfig{
			ID: workerIDs[j], Servers: serverIDs,
			Model:   model.Clone(),
			Sampler: dataset.NewSampler(train, rng.Split()),
			Batch:   batch, ParamRule: gar.Median{},
			QuorumParams: gar.MinQuorum(fServers),
			Steps:        steps,
			Timeout:      time.Minute,
		}
		if j == numWorkers-1 {
			wcfg.Attack = attack.SignFlip{Scale: 10}
		}
		ep := nodes[workerIDs[j]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ep, wcfg); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}

	// The victim runs with periodic checkpointing until we tear its node
	// down mid-run; the endpoint closure surfaces as an error, which is the
	// crash, not a failure.
	vm := metrics.NewNodeMetrics()
	vcfg := serverCfg(0)
	vcfg.Checkpoint = &CheckpointSpec{Dir: ckptDir, Every: ckptEvery}
	vcfg.Metrics = vm
	victimDone := make(chan error, 1)
	go func() {
		_, err := RunServer(nodes[victim], vcfg)
		victimDone <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for vm.LastStep() < killAfterStep {
		if time.Now().After(deadline) {
			t.Fatalf("victim never reached step %d (at %d)", killAfterStep, vm.LastStep())
		}
		time.Sleep(2 * time.Millisecond)
	}
	nodes[victim].Close() // the crash: listener and every connection die
	if err := <-victimDone; err == nil {
		t.Fatal("victim survived its own crash")
	}

	// Recovery: rebind the same address, restore the newest checkpoint, and
	// rejoin by adopting the median of a live peer-params quorum.
	ckpt, err := LoadCheckpoint(ckptDir, victim)
	if err != nil {
		t.Fatalf("no usable checkpoint after crash: %v", err)
	}
	if ckpt.Step < ckptEvery-1 {
		t.Fatalf("checkpoint at step %d, cadence says ≥ %d", ckpt.Step, ckptEvery-1)
	}
	reborn, err := transport.ListenTCP(victim, addrs[victim], nil)
	if err != nil {
		t.Fatalf("rebind %s: %v", addrs[victim], err)
	}
	defer reborn.Close()
	for _, id := range ids {
		if id != victim {
			if err := reborn.AddPeer(id, addrs[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	rm := metrics.NewNodeMetrics()
	rcfg := serverCfg(0)
	rcfg.Checkpoint = &CheckpointSpec{Dir: ckptDir, Every: ckptEvery}
	rcfg.Restore = &ckpt
	rcfg.Rejoin = true
	rcfg.Metrics = rm
	theta, err := RunServer(reborn, rcfg)
	if err != nil {
		t.Fatalf("recovered server failed: %v", err)
	}
	mu.Lock()
	finals = append(finals, theta)
	mu.Unlock()

	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("deployment failed around the crash: %v", errs[0])
	}
	if len(finals) != numServers {
		t.Fatalf("expected %d honest finals, got %d", numServers, len(finals))
	}

	// The recovered server's metrics must be exact: it finished the run
	// (last step, done flag) and completed no more steps than remained
	// after its newest checkpoint.
	if last := rm.LastStep(); last != steps-1 {
		t.Fatalf("recovered server's last step %d, want %d", last, steps-1)
	}
	if !rm.Done() {
		t.Fatal("recovered server never marked done")
	}
	if done := rm.Steps.Load(); done == 0 || done > uint64(steps-ckpt.Step-1) {
		t.Fatalf("recovered server completed %d steps, want 1..%d", done, steps-ckpt.Step-1)
	}

	// Contraction: every honest final — the recovered one included — within
	// contraction distance of the others, and the deployment converged.
	drift := tensor.MaxPairwiseDistance(finals)
	scale := tensor.Norm2(finals[0])
	if drift > 0.25*(1+scale) {
		t.Fatalf("recovered server outside contraction distance: drift %.4f at scale %.4f", drift, scale)
	}
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, final, test); acc < 0.85 {
		t.Fatalf("deployment with crash-recovery failed to converge: accuracy %.3f", acc)
	}
}

// TestLiveChurnKillRestart drives LiveConfig.Churn end to end on the
// in-process network: one honest server checkpoints, is killed mid-protocol
// once it reaches the kill step, restarts under the same ID from its newest
// checkpoint with median rejoin, and the deployment finishes with all six
// honest finals inside contraction distance — while the shared metrics
// registry stays healthy across the restart. Rejoin discovery is
// layout-agnostic, so the cycle runs at one shard and chunk-streamed. The
// topk row restarts the victim under top-k compression: it comes back with
// fresh encoders, and its peers' frames to it decode on their own.
func TestLiveChurnKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 12-node live deployment with a restart")
	}
	for name, tc := range map[string]struct {
		shardSize int
		comp      compress.Config
	}{
		"whole":   {},
		"sharded": {shardSize: 13},
		"topk":    {comp: compress.Config{Scheme: compress.TopK, TopKFrac: 0.2}},
	} {
		t.Run(name, func(t *testing.T) { liveChurnKillRestart(t, tc.shardSize, tc.comp) })
	}
}

func liveChurnKillRestart(t *testing.T, shardSize int, comp compress.Config) {
	reg := metrics.NewRegistry()
	model, train, test := testProblem(911)
	cfg := LiveConfig{
		Model: model, Train: train,
		NumServers: 6, FServers: 0,
		NumWorkers: 6, FWorkers: 0,
		QuorumServers: 3, QuorumWorkers: 3,
		Rule: gar.Median{}, ParamRule: gar.Median{},
		Steps: 30, Batch: 16, ShardSize: shardSize, Compression: comp,
		LR:      func(int) float64 { return 0.2 },
		Timeout: time.Minute,
		Seed:    7,
		Metrics: reg,
		// A few milliseconds of link latency keep the in-process run slow
		// enough that the kill watcher reliably fires mid-run rather than
		// after the 30 steps have already flashed past.
		Delay: func(string, string) time.Duration { return 2 * time.Millisecond },
		Churn: &LiveChurn{Server: 0, KillAtStep: 8, CheckpointEvery: 3, Dir: t.TempDir()},
	}
	// A scraper reads the registry every few milliseconds while the run is in
	// flight, as a /metrics poll would: no node's drop counters or step count
	// may ever go down between two reads — across the restart too, since the
	// second incarnation counts into the first one's handle.
	stop, reads := make(chan struct{}), make(chan int)
	go func() { reads <- scrapeMonotonic(t, reg, stop) }()
	res, err := RunLiveContext(context.Background(), cfg)
	close(stop)
	if n := <-reads; n < 2 {
		t.Errorf("the scraper read the registry %d times during the run, want at least 2", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) != cfg.NumServers {
		t.Fatalf("got %d honest finals, want %d (did the churned server finish?)", len(res.ServerParams), cfg.NumServers)
	}
	finals := make([]tensor.Vector, 0, cfg.NumServers)
	for _, v := range res.ServerParams {
		finals = append(finals, v)
	}
	drift := tensor.MaxPairwiseDistance(finals)
	scale := tensor.Norm2(res.Final)
	if drift > 0.25*(1+scale) {
		t.Fatalf("churned server outside contraction distance: drift %.4f at scale %.4f", drift, scale)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("deployment with live churn failed to converge: accuracy %.3f", acc)
	}
	// The victim's registry handle spans both incarnations: the step counter
	// kept climbing through the restart and the node finished the run.
	vm := reg.Node(ServerID(0))
	if !vm.Done() || vm.LastStep() != cfg.Steps-1 {
		t.Fatalf("churned server's registry handle: done=%v lastStep=%d, want done at %d",
			vm.Done(), vm.LastStep(), cfg.Steps-1)
	}
	if h := reg.CheckHealth(time.Minute); !h.Healthy {
		t.Fatalf("registry unhealthy after churn: %+v", h)
	}
	// And a restart actually happened — the kill fired before the run ended
	// and the second incarnation came back through checkpoint + rejoin.
	if !res.ChurnRestarted {
		t.Fatal("churn victim was never killed and restarted (run outran the kill watcher)")
	}
	// Median rejoin skips the outage: the second incarnation adopts the live
	// frontier instead of replaying from the checkpoint step, so the two
	// incarnations together perform fewer steps than the run has.
	if got := vm.Steps.Load(); got >= uint64(cfg.Steps) {
		t.Fatalf("victim performed %d steps for a %d-step run: rejoin should have skipped the outage", got, cfg.Steps)
	}
}

// scrapeMonotonic snapshots reg every 2 ms until stop is closed, then once
// more, and reports every node counter that went down between two reads. It
// returns how many reads it made.
func scrapeMonotonic(t *testing.T, reg *metrics.Registry, stop <-chan struct{}) int {
	names := [...]string{"future", "malformed", "forged", "unnegotiated", "roster",
		"overflow", "courier", "closed", "steps"}
	prev := make(map[string][len(names)]uint64)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for n := 1; ; n++ {
		stopped := false
		select {
		case <-stop:
			stopped = true
		case <-tick.C:
		}
		for _, s := range reg.Snapshot() {
			cur := [len(names)]uint64{s.DroppedFuture, s.DroppedMalformed, s.ForgedDropped,
				s.DroppedUnnegotiated, s.DroppedRoster, s.DroppedOverflow, s.CourierDropped,
				s.DroppedClosed, s.Steps}
			if old, ok := prev[s.ID]; ok {
				for i := range cur {
					if cur[i] < old[i] {
						t.Errorf("%s: %s counter went %d → %d between two scrapes", s.ID, names[i], old[i], cur[i])
					}
				}
			}
			prev[s.ID] = cur
		}
		if stopped {
			return n
		}
	}
}

// TestLiveChurnRejectsBadCycles covers the churn validation surface.
func TestLiveChurnRejectsBadCycles(t *testing.T) {
	model, train, _ := testProblem(912)
	base := func() LiveConfig {
		return LiveConfig{
			Model: model, Train: train,
			NumServers: 6, FServers: 0,
			NumWorkers: 6, FWorkers: 0,
			QuorumServers: 3, QuorumWorkers: 3,
			Rule: gar.Median{}, ParamRule: gar.Median{},
			Steps: 20, Batch: 8,
			Churn: &LiveChurn{Server: 0, KillAtStep: 5, CheckpointEvery: 2, Dir: "ckpt"},
		}
	}
	mutations := map[string]func(*LiveConfig){
		"server out of range": func(c *LiveConfig) { c.Churn.Server = 6 },
		"byzantine victim":    func(c *LiveConfig) { c.ServerAttacks = map[int]attack.Attack{0: attack.Zero{}} },
		"kill at step 0":      func(c *LiveConfig) { c.Churn.KillAtStep = 0 },
		"kill past the run":   func(c *LiveConfig) { c.Churn.KillAtStep = 20 },
		"cadence too slow":    func(c *LiveConfig) { c.Churn.CheckpointEvery = 6 },
		"no directory":        func(c *LiveConfig) { c.Churn.Dir = "" },
		"over tcp":            func(c *LiveConfig) { c.TCP = true },
	}
	for name, mutate := range mutations {
		cfg := base()
		mutate(&cfg)
		if _, err := RunLiveContext(context.Background(), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPinnedStreamFailover pins down the cluster-level answer to the
// pinned-membership liveness caveat: a streamed Multi-Krum round whose
// pinned member goes silent mid-round must fail over — reset, re-pin from
// the senders still alive, and complete — rather than deadlock or give up
// on the first timeout.
func TestPinnedStreamFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("exercises a real quorum timeout")
	}
	const (
		dim, shard = 4, 2
		q          = 5 // Multi-Krum F=1 needs n ≥ 2F+3
		timeout    = 2 * time.Second
	)
	net := transport.NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	eps := make(map[string]transport.Endpoint, 6)
	for _, id := range []string{"w0", "w1", "w2", "w3", "w4", "w5"} {
		eps[id], _ = net.Register(id)
	}
	layout := transport.NewShardLayout(dim, shard)
	col := transport.NewCollector(recv, layout)

	vec := func(x float64) tensor.Vector { return tensor.Vector{x, x, x, x} }
	sendShard := func(id string, idx int, v tensor.Vector) {
		lo, hi := layout.Bounds(idx)
		if err := eps[id].Send("srv", transport.Message{
			Kind: transport.KindGradient, Step: 3, Vec: v[lo:hi],
			Shard: transport.ShardMeta{Index: idx, Count: layout.Count(), Offset: lo},
		}); err != nil {
			t.Error(err)
		}
	}
	// Round 1 traffic: w0..w4 complete shard 0 (so the pin is w0..w4), then
	// w0 crashes — its shard 1 never arrives, and the pinned round stalls.
	for i, id := range []string{"w0", "w1", "w2", "w3", "w4"} {
		sendShard(id, 0, vec(float64(i)))
	}
	for i, id := range []string{"w1", "w2", "w3", "w4"} {
		sendShard(id, 1, vec(float64(i+1)))
	}
	// The failover traffic arrives only after the first attempt has timed
	// out: the surviving senders re-send (whole vectors deliver every shard
	// at once) and w5 takes the crashed sender's slot.
	inputs := map[string]tensor.Vector{
		"w1": vec(1), "w2": vec(2), "w3": vec(3), "w4": vec(4), "w5": vec(10),
	}
	go func() {
		time.Sleep(timeout + timeout/2)
		for id, v := range inputs {
			if err := eps[id].Send("srv", transport.Message{Kind: transport.KindGradient, Step: 3, Vec: v}); err != nil {
				t.Error(err)
			}
		}
	}()

	rule := gar.MultiKrum{F: 1}
	start := time.Now()
	qm := &quorum{col: col, timeout: timeout}
	senders, _, out, err := qm.reduce(transport.KindGradient, 3, q, nil, "", rule)
	if err != nil {
		t.Fatalf("pinned round did not fail over: %v (after %s)", err, time.Since(start))
	}
	if len(senders) != q {
		t.Fatalf("failover pinned %v, want %d members", senders, q)
	}
	for _, id := range senders {
		if id == "w0" {
			t.Fatalf("crashed sender re-pinned after failover: %v", senders)
		}
	}
	// The failover aggregate must be exactly Multi-Krum over the retry's
	// pinned inputs, in pinned order.
	ordered := make([]tensor.Vector, len(senders))
	for i, id := range senders {
		ordered[i] = inputs[id]
	}
	want, err := rule.Aggregate(ordered)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("failover aggregate %v, want %v (pin %v)", out, want, senders)
		}
	}
}
