package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestLiveShardedConverges runs the full live protocol with every vector
// streamed as chunk frames (a prime shard size that does not divide the
// model dimension) and incremental shard quorums on the receive side.
func TestLiveShardedConverges(t *testing.T) {
	model, train, test := testProblem(100)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		Steps: 80, Batch: 16,
		LR:        func(int) float64 { return 0.2 },
		Timeout:   60 * time.Second,
		Seed:      1,
		ShardSize: 13,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) != 6 {
		t.Fatalf("expected 6 honest finals, got %d", len(res.ServerParams))
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.9 {
		t.Fatalf("sharded GuanYu failed to converge: accuracy %.3f", acc)
	}
}

// TestLiveShardedSurvivesByzantineAndFaults arms Byzantine workers AND
// per-shard-frame network faults at once: the incremental quorums must
// absorb duplicated and delay-spiked chunk frames while Multi-Krum's
// streaming two-pass path filters the attacked gradients. Faults that can
// defer a frame past its round (drops, reorder holds) are excluded here:
// a pinned membership cannot substitute senders, so its liveness needs
// within-round delivery — see the transport.Collector doc and
// TestLiveShardedMedianSurvivesDrops for the lossy-link mode.
func TestLiveShardedSurvivesByzantineAndFaults(t *testing.T) {
	model, train, test := testProblem(200)
	sus := stats.NewSuspicion()
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 9, FWorkers: 2,
		Steps: 60, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    2,
		WorkerAttacks: map[int]attack.Attack{
			0: attack.SignFlip{Scale: 30},
			1: attack.SignFlip{Scale: 30},
		},
		Faults: transport.NewFaultInjector(transport.FaultConfig{
			Seed: 3, Duplicate: 0.05, DelayRate: 0.1, DelaySpike: 0.002,
		}),
		Suspicion: sus,
		ShardSize: 13,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("sharded GuanYu under attack+faults: accuracy %.3f", acc)
	}
	// The streaming Multi-Krum path must keep feeding the accountability
	// signal: the attacked workers should top the exclusion ranking.
	ranking := sus.Ranking()
	if len(ranking) < 2 {
		t.Fatalf("no suspicion recorded on the sharded path")
	}
	top := map[string]bool{ranking[0].Sender: true, ranking[1].Sender: true}
	if !top[WorkerID(0)] || !top[WorkerID(1)] {
		t.Fatalf("attacked workers not top-ranked: %v", ranking[:2])
	}
}

// TestLiveShardedMedianSurvivesDrops covers the lossy-link case: with a
// coordinate-wise gradient rule, every shard's quorum is its own first q
// arrivals, so a dropped or reorder-held chunk frame costs its sender one
// shard's slot and nothing else — the per-shard counterpart of the
// whole-vector quorum margin. Populations are sized for real margins
// (n−q = 3 servers, n̄−q̄ = 5 workers), because every lost frame consumes
// margin exactly as a silent sender would.
func TestLiveShardedMedianSurvivesDrops(t *testing.T) {
	model, train, test := testProblem(400)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 8, FServers: 1,
		NumWorkers: 12, FWorkers: 2,
		Steps: 40, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    5,
		Rule:    gar.Median{},
		Faults: transport.NewFaultInjector(transport.FaultConfig{
			Seed: 6, Drop: 0.01, Duplicate: 0.02, Reorder: 0.02,
		}),
		ShardSize: 13,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("sharded median under drops: accuracy %.3f", acc)
	}
}

// TestShardedOverTCP runs sharded node loops over real TCP sockets: chunk
// frames on the wire, hello-authenticated connections, incremental shard
// quorums at the receivers, plus one whole-vector (unsharded) worker to
// prove the two framings interoperate inside one deployment.
func TestShardedOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up 12 TCP listeners")
	}
	const (
		numServers, fServers = 6, 1
		numWorkers, fWorkers = 6, 1
		steps, batch         = 30, 16
	)
	model, train, test := testProblem(300)
	theta0 := model.ParamVector()
	dim := len(theta0)
	shardSize := dim/3 + 1 // three shards, the last a short remainder

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
	for _, n := range nodes {
		for _, id := range ids {
			if id != n.ID() {
				if err := n.AddPeer(id, nodes[id].Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	serverIDs, workerIDs := ids[:numServers], ids[numServers:]
	rng := tensor.NewRNG(77)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		finals []tensor.Vector
		errs   []error
	)
	for i := 0; i < numServers; i++ {
		peers := make([]string, 0, numServers-1)
		for k, id := range serverIDs {
			if k != i {
				peers = append(peers, id)
			}
		}
		scfg := ServerConfig{
			ID: serverIDs[i], Workers: workerIDs, Peers: peers,
			Init:     theta0,
			GradRule: gar.MultiKrum{F: fWorkers}, ParamRule: gar.Median{},
			QuorumGradients: gar.MinQuorum(fWorkers),
			QuorumParams:    gar.MinQuorum(fServers),
			Steps:           steps,
			LR:              func(int) float64 { return 0.2 },
			Timeout:         time.Minute,
			ShardSize:       shardSize,
		}
		ep := nodes[serverIDs[i]]
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
			ShardSize:    shardSize,
		}
		if j == numWorkers-1 {
			wcfg.ShardSize = 0 // whole-vector node inside a sharded deployment
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
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("sharded TCP deployment failed: %v", errs[0])
	}
	if len(finals) != numServers {
		t.Fatalf("expected %d finals, got %d", numServers, len(finals))
	}
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, final, test); acc < 0.8 {
		t.Fatalf("sharded TCP deployment failed to converge: accuracy %.3f", acc)
	}
}

// TestShardedTCPDropCountersUnderRogue arms one sharded live TCP run so
// that every inbound drop class fires independently, and asserts each
// through its own counter:
//
//   - DroppedOverflow: a rogue — a declared worker, wrk3, gone Byzantine:
//     an undeclared identity would be refused by the collector's sender
//     table before any other check — bursts 100 malformed frames at ps0
//     before anyone drains — with a drop-oldest cap of 8, exactly the
//     excess is evicted at the mailbox, deterministically.
//   - DroppedFuture: the rogue's last frames claim a step far beyond the
//     collector's horizon; the survivors of the burst are consumed at
//     server startup and counted there.
//   - DroppedMalformed: the remaining survivors carry shard tags that
//     disagree with the deployment layout and die in the shard collector.
//   - ForgedDropped: a second raw connection hellos as "rogue2" and sends
//     frames whose From claims another identity — dropped at the read
//     loop before any mailbox.
//   - DroppedUnnegotiated: the same connection sends compressed frames
//     under a scheme its hello never announced.
//
// All five classes must come back, exactly, through the node's one metrics
// registry handle — live before the run and after it. Training
// then converges anyway: every drop class lands in the rogues' own
// per-sender queues or in validation, never in an honest quorum slot.
func TestShardedTCPDropCountersUnderRogue(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up 7 TCP listeners")
	}
	const (
		numServers, numWorkers = 3, 3
		steps, batch           = 40, 16
		shardSize              = 13
		mailboxCap             = 8
		burst                  = 100
		futureFrames           = 4
		forgedFrames           = 5
		unnegFrames            = 3
	)
	model, train, test := testProblem(700)
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
		if err := n.SetMailbox(transport.MailboxConfig{
			Cap: mailboxCap, Policy: transport.DropOldest,
		}); err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	for _, n := range nodes {
		for _, id := range ids {
			if id != n.ID() {
				if err := n.AddPeer(id, nodes[id].Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	target := nodes[ServerID(0)]
	// The registry handle, attached before any rogue traffic so every drop
	// below is counted into it as it happens, transport and collector alike.
	handle := metrics.NewRegistry().Node(target.ID())
	target.SetMetrics(handle)

	rogueID := WorkerID(numWorkers)
	rogue, err := transport.ListenTCP(rogueID, "127.0.0.1:0",
		map[string]string{target.ID(): target.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	// The burst: malformed shard tags (a count no honest layout produces),
	// then frames claiming a step far beyond the horizon. Nobody drains
	// ps0 yet, so drop-oldest must evict exactly the excess, leaving the
	// newest mailboxCap frames: futureFrames future ones preceded by
	// malformed ones.
	for i := 0; i < burst; i++ {
		if err := rogue.Send(target.ID(), transport.Message{
			Kind: transport.KindGradient, Step: 0,
			Vec:   tensor.Vector{1},
			Shard: transport.ShardMeta{Index: 0, Count: 99, Offset: 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < futureFrames; i++ {
		if err := rogue.Send(target.ID(), transport.Message{
			Kind: transport.KindGradient, Step: 5000, Vec: tensor.Vector{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	const wantOverflow = burst + futureFrames - mailboxCap
	deadline := time.Now().Add(10 * time.Second)
	for handle.DroppedOverflow.Load() < wantOverflow && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := handle.DroppedOverflow.Load(); got != wantOverflow {
		t.Fatalf("DroppedOverflow = %d, want %d before the run starts", got, wantOverflow)
	}

	// A second adversary speaks the raw wire protocol: hello as "rogue2",
	// then frames forging other senders (dropped at the read loop, exactly
	// counted) and compressed frames under a scheme the hello never
	// announced (dropped as un-negotiated). Neither class ever reaches a
	// mailbox or collector, so the exact counts above are undisturbed.
	raw, err := net.Dial("tcp", target.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	stream, err := transport.AppendHello(nil, "rogue2", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < forgedFrames; i++ {
		stream, err = transport.AppendMessage(stream, &transport.Message{
			From: "wrk0", Kind: transport.KindGradient, Step: 0, Vec: tensor.Vector{1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < unnegFrames; i++ {
		stream, err = transport.AppendMessage(stream, &transport.Message{
			From: "rogue2", Kind: transport.KindGradient, Step: 0,
			Comp: transport.CompMeta{Scheme: 1, Dim: 1, Data: []byte{0, 0, 0, 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	for (handle.ForgedDropped.Load() < forgedFrames ||
		handle.DroppedUnnegotiated.Load() < unnegFrames) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := handle.ForgedDropped.Load(); got != forgedFrames {
		t.Fatalf("ForgedDropped = %d, want %d before the run starts", got, forgedFrames)
	}
	if got := handle.DroppedUnnegotiated.Load(); got != unnegFrames {
		t.Fatalf("DroppedUnnegotiated = %d, want %d before the run starts", got, unnegFrames)
	}

	serverIDs, workerIDs := ids[:numServers], ids[numServers:]
	rng := tensor.NewRNG(23)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		finals []tensor.Vector
		errs   []error
	)
	for i := 0; i < numServers; i++ {
		peers := make([]string, 0, numServers-1)
		for k, id := range serverIDs {
			if k != i {
				peers = append(peers, id)
			}
		}
		scfg := ServerConfig{
			ID: serverIDs[i], Workers: append(workerIDs[:numWorkers:numWorkers], rogueID), Peers: peers,
			Init:     theta0,
			GradRule: gar.MultiKrum{F: 0}, ParamRule: gar.Median{},
			QuorumGradients: gar.MinQuorum(0),
			QuorumParams:    gar.MinQuorum(0),
			Steps:           steps,
			LR:              func(int) float64 { return 0.2 },
			Timeout:         time.Minute,
			ShardSize:       shardSize,
		}
		if i == 0 {
			scfg.Metrics = handle
		}
		ep := nodes[serverIDs[i]]
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
			QuorumParams: gar.MinQuorum(0),
			Steps:        steps,
			Timeout:      time.Minute,
			ShardSize:    shardSize,
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
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("sharded deployment under rogue failed: %v", errs[0])
	}
	if len(finals) != numServers {
		t.Fatalf("expected %d finals, got %d", numServers, len(finals))
	}

	if got := handle.DroppedFuture.Load(); got != futureFrames {
		t.Errorf("DroppedFuture = %d, want %d", got, futureFrames)
	}
	if got, want := handle.DroppedMalformed.Load(), uint64(mailboxCap-futureFrames); got != want {
		t.Errorf("DroppedMalformed = %d, want %d", got, want)
	}
	if got := handle.DroppedOverflow.Load(); got != wantOverflow {
		t.Errorf("DroppedOverflow moved during the run: %d, want %d (honest traffic must not overflow)",
			got, wantOverflow)
	}
	// The transport-layer classes must not have moved either, and the
	// loop's own progress lands in the same handle.
	if got := handle.ForgedDropped.Load(); got != forgedFrames {
		t.Errorf("ForgedDropped = %d after the run, want %d", got, forgedFrames)
	}
	if got := handle.DroppedUnnegotiated.Load(); got != unnegFrames {
		t.Errorf("DroppedUnnegotiated = %d after the run, want %d", got, unnegFrames)
	}
	if got := handle.Steps.Load(); got != steps {
		t.Errorf("Steps = %d, want %d", got, steps)
	}
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, final, test); acc < 0.8 {
		t.Fatalf("rogue drops broke convergence: accuracy %.3f", acc)
	}
}
