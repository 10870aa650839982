package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/gar"
	"repro/internal/tensor"
)

// recordingOmniscient captures the views the engine crafts from, then
// behaves like a sign-flip.
type recordingOmniscient struct {
	mu    sync.Mutex
	views []attack.ClusterView
}

func (r *recordingOmniscient) Name() string { return "recording" }

func (r *recordingOmniscient) Craft(out tensor.Vector, v attack.ClusterView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.views = append(r.views, v)
	copy(out, tensor.Scale(v.Honest()[0], -1))
}

func (r *recordingOmniscient) Corrupt(honest tensor.Vector, _ int, _ string) tensor.Vector {
	return tensor.Scale(honest, -1)
}

func TestSimFeedsOmniscientViews(t *testing.T) {
	w := BlobWorkload(300, 3)
	cfg := GuanYu(w, 1, 1, 4, 4, 3)
	workerRec := &recordingOmniscient{}
	serverRec := &recordingOmniscient{}
	cfg.WorkerAttacks = map[int]attack.Attack{0: workerRec}
	cfg.ServerAttacks = map[int]attack.Attack{0: serverRec}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Worker attacks craft from one complete honest-gradient view per step.
	if len(workerRec.views) != cfg.Steps {
		t.Fatalf("worker attack crafted from %d views, want %d", len(workerRec.views), cfg.Steps)
	}
	honestWorkers := cfg.NumWorkers - 1
	for i, v := range workerRec.views {
		if v.Step() != i {
			t.Fatalf("view %d has step %d", i, v.Step())
		}
		if len(v.Honest()) != honestWorkers {
			t.Fatalf("view %d sees %d honest gradients, want %d", i, len(v.Honest()), honestWorkers)
		}
		if v.F() != cfg.FWorkers || v.Colluders() != 1 {
			t.Fatalf("view %d metadata: f=%d colluders=%d", i, v.F(), v.Colluders())
		}
	}
	// Server attacks craft in phase 1 AND in the phase-3 contraction round:
	// two views per step, full honest-θ visibility.
	if len(serverRec.views) != 2*cfg.Steps {
		t.Fatalf("server attack crafted from %d views, want %d", len(serverRec.views), 2*cfg.Steps)
	}
	honestServers := cfg.NumServers - 1
	for i, v := range serverRec.views {
		if len(v.Honest()) != honestServers {
			t.Fatalf("server view %d sees %d honest thetas, want %d", i, len(v.Honest()), honestServers)
		}
	}
}

// countingCraft is an ALIE that counts its crafts per step. It is a value:
// the colluders armed with one share its counts and compare equal.
type countingCraft struct {
	attack.ALIE
	counts *stepCounts
}

func (c countingCraft) Craft(out tensor.Vector, v attack.ClusterView) {
	c.counts.mu.Lock()
	c.counts.n[v.Step()]++
	c.counts.mu.Unlock()
	c.ALIE.Craft(out, v)
}

type stepCounts struct {
	mu sync.Mutex
	n  map[int]int
}

// TestColludersCraftOncePerKindAndStep: five workers and a server armed
// with one omniscient value each craft once per message kind and step — in
// the simulator exactly once (the workers speak in one kind, the server in
// two), and in a channel-mesh live run at most once, on the steps where a
// colluder found an honest vector published.
func TestColludersCraftOncePerKindAndStep(t *testing.T) {
	w := BlobWorkload(300, 3)
	arm := func() (workers, servers *stepCounts, wa, sa map[int]attack.Attack) {
		workers, servers = &stepCounts{n: map[int]int{}}, &stepCounts{n: map[int]int{}}
		wa, sa = map[int]attack.Attack{}, map[int]attack.Attack{0: countingCraft{counts: servers}}
		for j := range 5 {
			wa[j] = countingCraft{attack.ALIE{Z: 1}, workers}
		}
		return workers, servers, wa, sa
	}

	cfg := GuanYu(w, 5, 1, 4, 4, 3)
	workers, servers, wa, sa := arm()
	cfg.WorkerAttacks, cfg.ServerAttacks = wa, sa
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for step := range cfg.Steps {
		if workers.n[step] != 1 || servers.n[step] != 2 {
			t.Errorf("sim step %d: the five workers crafted %d times (want 1), the server %d (want 2)",
				step, workers.n[step], servers.n[step])
		}
	}

	workers, servers, wa, sa = arm()
	live := cluster.LiveConfig{
		Model: w.Model, Train: w.Train,
		NumServers: PaperServers, FServers: 1, NumWorkers: PaperWorkers, FWorkers: 5,
		WorkerAttacks: wa, ServerAttacks: sa,
		Steps: 10, Batch: 4,
		Timeout: time.Minute,
		Seed:    3,
	}
	if _, err := cluster.RunLiveContext(context.Background(), live); err != nil {
		t.Fatal(err)
	}
	crafted := 0
	for step, n := range workers.n {
		crafted += n
		if n > 1 || servers.n[step] > 2 {
			t.Errorf("live step %d: the five workers crafted %d times (want at most 1), the server %d (at most 2)",
				step, n, servers.n[step])
		}
	}
	if crafted == 0 {
		t.Error("no live worker ever crafted: every colluder fell back on every step")
	}
}

// The adaptive adversaries must actually run end-to-end under the robust
// deployment: GuanYu absorbs them where the unprotected mean baseline is
// destroyed by the same collusion.
func TestSimAdaptiveAttacksEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("macro run")
	}
	for _, spec := range []string{"alie:z=1.5", "ipm:eps=3", "antikrum", "mimic"} {
		mk, err := attack.FromSpec(spec, 17)
		if err != nil {
			t.Fatal(err)
		}
		cfg := GuanYu(BlobWorkload(400, 5), 5, 0, 40, 8, 5)
		cfg = WithByzantineWorkers(cfg, 5, mk)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !tensor.IsFinite(res.Final) {
			t.Fatalf("%s: poisoned the robust deployment", spec)
		}
		if res.FinalAccuracy < 0.6 {
			t.Fatalf("%s: GuanYu accuracy %.3f under adaptive collusion", spec, res.FinalAccuracy)
		}
	}

	// The same inner-product collusion against the unprotected mean: one
	// epsilon large enough flips the aggregate's sign and training never
	// converges.
	mk, err := attack.FromSpec("ipm:eps=5", 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GuanYu(BlobWorkload(400, 5), 5, 0, 40, 8, 5)
	cfg.Rule = gar.Mean{}
	cfg = WithByzantineWorkers(cfg, 5, mk)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy > 0.6 {
		t.Fatalf("mean aggregation should not survive ipm:eps=5, accuracy %.3f", res.FinalAccuracy)
	}
}
