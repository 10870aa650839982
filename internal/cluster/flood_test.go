package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// floodHeapSampler tracks the HeapAlloc high-water mark while the deployment
// under flood runs.
type floodHeapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startFloodSampler() *floodHeapSampler {
	s := &floodHeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak {
				s.peak = ms.HeapAlloc
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *floodHeapSampler) Peak() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// TestFloodBoundedMemoryAndLiveness is the chaos/soak check the bounded
// mailboxes exist for: a Byzantine-rate sender sprays oversized junk frames
// at one parameter server over real TCP, as fast as loopback allows, for
// the whole training run. Two properties must hold at once:
//
//  1. Memory stays bounded: peak heap remains under a budget derived from
//     nodes × mailboxCap × frameSize — the attacker occupies at most its
//     per-sender quota at the receiver, however fast it sends. Before this
//     runtime, every sprayed frame accumulated in an unbounded inbox.
//  2. The quorum path stays live: training converges, because drop-oldest
//     evicts only within the flooder's own per-sender queue and the junk
//     frames die at the collector's sender table (the flooder is nobody the
//     server's config names), never in a quorum.
func TestFloodBoundedMemoryAndLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up 7 TCP listeners and sprays loopback for the whole run")
	}
	const (
		numServers, numWorkers = 3, 3
		steps, batch           = 40, 16
		mailboxCap             = 16
		floodDim               = 4096 // ~32 KiB per junk frame
	)
	model, train, test := testProblem(500)
	theta0 := model.ParamVector()
	mbox := transport.MailboxConfig{Cap: mailboxCap, Policy: transport.DropOldest}

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
		if err := n.SetMailbox(mbox); err != nil {
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

	// The flooder dials the target like any peer; the target's read loop
	// accepts any well-formed hello, which is exactly the surface a
	// Byzantine stranger has.
	flood, err := transport.ListenTCP("flood", "127.0.0.1:0",
		map[string]string{target.ID(): target.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer flood.Close()
	var sprayed atomic.Uint64
	stopFlood := make(chan struct{})
	floodDone := make(chan struct{})
	junk := make(tensor.Vector, floodDim)
	go func() {
		defer close(floodDone)
		for {
			select {
			case <-stopFlood:
				return
			default:
			}
			if err := flood.Send(target.ID(), transport.Message{
				Kind: transport.KindGradient, Step: 1, Vec: junk,
			}); err != nil {
				return
			}
			sprayed.Add(1)
		}
	}()

	// Phase 1 — before anyone drains the target, the spray must hit the
	// per-sender cap and overflow deterministically: the bound is doing the
	// work, not the server's drain rate.
	deadline := time.Now().Add(10 * time.Second)
	for target.Metrics().DroppedOverflow.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if target.Metrics().DroppedOverflow.Load() == 0 {
		t.Fatal("flood never overflowed the per-sender bound")
	}

	// Phase 2 — run the full deployment with the spray still going.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	// nodes is the whole population the target could buffer for: the
	// deployment plus the flooder.
	frameBytes := uint64(8*floodDim + 128)
	budget := base.HeapAlloc + (32 << 20) +
		8*uint64(numServers+numWorkers+1)*mailboxCap*frameBytes
	sampler := startFloodSampler()
	sprayedBefore, started := sprayed.Load(), time.Now()

	serverIDs, workerIDs := ids[:numServers], ids[numServers:]
	rng := tensor.NewRNG(11)
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
			GradRule: gar.MultiKrum{F: 0}, ParamRule: gar.Median{},
			QuorumGradients: gar.MinQuorum(0),
			QuorumParams:    gar.MinQuorum(0),
			Steps:           steps,
			LR:              func(int) float64 { return 0.2 },
			Timeout:         time.Minute,
			Metrics:         nodes[serverIDs[i]].Metrics(), // one handle: mailbox and collector drops
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
	duringRun, ran := sprayed.Load()-sprayedBefore, time.Since(started)
	close(stopFlood)
	<-floodDone
	peak := sampler.Peak()

	if len(errs) > 0 {
		t.Fatalf("deployment under flood failed: %v", errs[0])
	}
	if len(finals) != numServers {
		t.Fatalf("expected %d finals, got %d", numServers, len(finals))
	}
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, final, test); acc < 0.8 {
		t.Fatalf("quorum path lost liveness under flood: accuracy %.3f", acc)
	}
	// A rate, not a count: how long the run lasts is the trainer's business
	// (under 0.1 s here), and 2,000 junk frames a second is already 64 MB/s
	// aimed at one node.
	if rate := float64(duringRun) / ran.Seconds(); rate < 2000 {
		t.Fatalf("flooder only managed %d frames in %v (%.0f/s); not a Byzantine-rate spray", duringRun, ran, rate)
	}
	if got := target.Metrics().DroppedRoster.Load(); got == 0 {
		t.Fatal("no junk frame was refused by the sender table: where did the flood go?")
	}
	if peak > budget {
		t.Fatalf("peak heap %d exceeded the n×cap×frame budget %d (base %d)",
			peak, budget, base.HeapAlloc)
	}
	t.Logf("sprayed %d junk frames (%d dropped at the bound), peak heap %.1f MiB of %.1f MiB budget",
		sprayed.Load(), target.Metrics().DroppedOverflow.Load(),
		float64(peak)/(1<<20), float64(budget)/(1<<20))
}
