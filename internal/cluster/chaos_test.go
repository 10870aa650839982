package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestChaosTCPClusterSurvivesFaultsAndEquivocation is the race/chaos probe
// of the live runtime: a full TCP deployment where every node's send path
// runs through a FaultInjector (real drops, duplicates, reordering, delay
// spikes) while one server equivocates — a different lie to every
// receiver, every step. The deployment must finish its fixed step count,
// and the honest servers must end within contraction distance of each
// other: the Phase-3 median exchange has to keep pulling them together
// even when the network loses and reorders its traffic.
//
// Quorums are declared with slack (f=0 → q=3 of 6 per role): a dropped
// message is never retransmitted, so a zero-slack quorum would deadlock on
// the first lost link — the matching simulator-side behaviour is the
// scenario matrix's partition breakdown column.
func TestChaosTCPClusterSurvivesFaultsAndEquivocation(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up 12 TCP listeners")
	}
	const (
		numServers, numWorkers = 6, 6
		steps, batch           = 30, 16
		quorum                 = 3 // per role: slack for real message loss
	)
	model, train, test := testProblem(909)
	theta0 := model.ParamVector()

	inj := transport.NewFaultInjector(transport.FaultConfig{
		Seed: 77, Drop: 0.03, Duplicate: 0.05, Reorder: 0.1,
		DelayRate: 0.1, DelaySpike: 0.002,
	})

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
	rng := tensor.NewRNG(31)

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
			Init: theta0,
			// Median on both paths: legal at the slack quorum of 3 (the
			// Krum family would need 2f+3 inputs) and robust against the
			// equivocating server's per-receiver lies.
			GradRule: gar.Median{}, ParamRule: gar.Median{},
			QuorumGradients: quorum,
			QuorumParams:    quorum,
			Steps:           steps,
			LR:              func(int) float64 { return 0.2 },
			Timeout:         time.Minute,
		}
		if i == numServers-1 {
			// The Byzantine server: a different corruption per receiver.
			scfg.Attack = attack.Equivocate{Std: 0.5, Seed: 13}
		}
		ep := inj.Wrap(nodes[serverIDs[i]])
		byz := scfg.Attack != nil
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
			if !byz {
				finals = append(finals, theta)
			}
		}()
	}
	for j := 0; j < numWorkers; j++ {
		wcfg := WorkerConfig{
			ID: workerIDs[j], Servers: serverIDs,
			Model:   model.Clone(),
			Sampler: dataset.NewSampler(train, rng.Split()),
			Batch:   batch, ParamRule: gar.Median{},
			QuorumParams: quorum,
			Steps:        steps,
			Timeout:      time.Minute,
		}
		ep := inj.Wrap(nodes[workerIDs[j]])
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
		t.Fatalf("chaos deployment failed: %v (and %d more)", errs[0], len(errs)-1)
	}
	if len(finals) != numServers-1 {
		t.Fatalf("expected %d honest finals, got %d", numServers-1, len(finals))
	}

	// The Phase-3 contraction property must survive real faults: every
	// honest final is finite, and the honest servers sit within contraction
	// distance of each other — far tighter than the O(1) scale of the
	// parameters themselves, which is where they would drift without the
	// median exchange (see the experiments' Contraction ablation).
	for i, f := range finals {
		if !tensor.IsFinite(f) {
			t.Fatalf("honest final %d contains non-finite values", i)
		}
	}
	drift := tensor.MaxPairwiseDistance(finals)
	scale := tensor.Norm2(finals[0])
	if drift > 0.25*(1+scale) {
		t.Fatalf("honest servers outside contraction distance: drift %.4f at parameter scale %.4f",
			drift, scale)
	}

	// And the model the cluster agreed on must still have learned.
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, final, test); acc < 0.80 {
		t.Fatalf("chaos deployment failed to converge: accuracy %.3f", acc)
	}
}

// TestLiveOmniscientAttackGetsSharedView checks the live runtimes' side of
// the ClusterView contract: in an in-process deployment, honest nodes
// publish their vectors to the shared view and an omniscient Byzantine
// worker actually crafts from non-empty honest state while the cluster
// still converges around it.
func TestLiveOmniscientAttackGetsSharedView(t *testing.T) {
	if testing.Short() {
		t.Skip("full live run")
	}
	model, train, test := testProblem(707)
	probe := &viewProbe{inner: attack.ALIE{Z: 1.5}}
	cfg := LiveConfig{
		Model: model, Train: train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		WorkerAttacks: map[int]attack.Attack{0: probe},
		Steps:         25, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: time.Minute,
		Seed:    3,
	}
	res, err := runLive(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe.maxHonest() == 0 {
		t.Fatal("omniscient worker never crafted from any honest gradient")
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("cluster did not converge around the ALIE colluder: accuracy %.3f", acc)
	}
}

// viewProbe wraps an Omniscient attack and records the richest view it
// crafted from.
type viewProbe struct {
	inner attack.Omniscient

	mu   sync.Mutex
	best int
}

func (p *viewProbe) Name() string { return p.inner.Name() }

func (p *viewProbe) Craft(out tensor.Vector, v attack.ClusterView) {
	p.mu.Lock()
	if n := len(v.Honest()); n > p.best {
		p.best = n
	}
	p.mu.Unlock()
	p.inner.Craft(out, v)
}

func (p *viewProbe) Corrupt(honest tensor.Vector, step int, receiver string) tensor.Vector {
	return p.inner.Corrupt(honest, step, receiver)
}

func (p *viewProbe) maxHonest() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.best
}
