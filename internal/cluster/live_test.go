package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

// testProblem builds a 3-class blob task and a small MLP for it.
func testProblem(seed uint64) (*nn.Sequential, *dataset.Dataset, *dataset.Dataset) {
	data := dataset.Blobs(600, 3, 3, 0.5, seed)
	train, test := data.Split(0.8, tensor.NewRNG(seed+1))
	model := nn.NewMLP(tensor.NewRNG(seed+2), 2, 16, 3)
	return model, train, test
}

func evalFinal(t *testing.T, model *nn.Sequential, final tensor.Vector,
	test *dataset.Dataset) float64 {
	t.Helper()
	m := model.Clone()
	if err := m.SetParamVector(final); err != nil {
		t.Fatal(err)
	}
	return nn.Accuracy(m, test.X, test.Labels)
}

func TestLiveGuanYuConvergesNonByzantine(t *testing.T) {
	model, train, test := testProblem(100)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		Steps: 80, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    1,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) != 6 {
		t.Fatalf("expected 6 honest finals, got %d", len(res.ServerParams))
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.9 {
		t.Fatalf("GuanYu failed to converge: accuracy %.3f", acc)
	}
	// Honest servers must have contracted to nearby models.
	finals := make([]tensor.Vector, 0, len(res.ServerParams))
	for _, v := range res.ServerParams {
		finals = append(finals, v)
	}
	if drift := tensor.MaxPairwiseDistance(finals); drift > 1.0 {
		t.Fatalf("honest servers drifted apart: max distance %.3f", drift)
	}
}

func TestLiveGuanYuSurvivesByzantineWorkersAndServer(t *testing.T) {
	model, train, test := testProblem(200)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		ServerAttacks: map[int]attack.Attack{
			5: attack.TwoFaced{Inner: attack.NewRandomGaussian(50, 7)},
		},
		WorkerAttacks: map[int]attack.Attack{
			5: attack.ScaledNorm{Factor: 1e6},
		},
		Steps: 80, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    2,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) != 5 {
		t.Fatalf("expected 5 honest finals, got %d", len(res.ServerParams))
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.9 {
		t.Fatalf("GuanYu collapsed under attack: accuracy %.3f", acc)
	}
}

func TestLiveVanillaDivergesUnderSingleByzantineWorker(t *testing.T) {
	model, train, test := testProblem(300)
	vanilla := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 1, FServers: 0,
		NumWorkers: 5, FWorkers: 0,
		QuorumServers: 1, QuorumWorkers: 5,
		Rule:      gar.Mean{},
		ParamRule: gar.Mean{}, // single vector; identity either way
		// A gradient-ascent attack: it scales with the honest gradients, so
		// the honest majority cannot out-correct it (fixed-magnitude noise
		// gets self-healed on easy tasks), yet arithmetic stays finite and
		// the run completes so we can observe the collapse.
		WorkerAttacks: map[int]attack.Attack{
			4: attack.SignFlip{Scale: 10},
		},
		Steps: 40, Batch: 16,
		LR:             func(int) float64 { return 0.2 },
		Timeout:        60 * time.Second,
		Seed:           3,
		SkipValidation: true, // vanilla deliberately ignores the theory bounds
	}
	res, err := RunLive(vanilla)
	if err != nil {
		t.Fatal(err)
	}
	acc := evalFinal(t, model, res.Final, test)
	if tensor.IsFinite(res.Final) && acc > 0.6 {
		t.Fatalf("vanilla survived a Byzantine worker (accuracy %.3f); it must not", acc)
	}
}

func TestLiveVanillaConvergesWithoutAttack(t *testing.T) {
	model, train, test := testProblem(400)
	vanilla := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 1, FServers: 0,
		NumWorkers: 5, FWorkers: 0,
		QuorumServers: 1, QuorumWorkers: 5,
		Rule:  gar.Mean{},
		Steps: 80, Batch: 16,
		LR:             func(int) float64 { return 0.2 },
		Timeout:        60 * time.Second,
		Seed:           4,
		SkipValidation: true,
	}
	res, err := RunLive(vanilla)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.9 {
		t.Fatalf("vanilla baseline failed to converge: accuracy %.3f", acc)
	}
}

func TestLiveSilentServerDoesNotBlockProgress(t *testing.T) {
	model, train, test := testProblem(500)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		ServerAttacks: map[int]attack.Attack{2: attack.Silent{}},
		Steps:         60, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    5,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("silent server stalled learning: accuracy %.3f", acc)
	}
}

func TestLiveNaNInjectionIsFilteredAtReceipt(t *testing.T) {
	model, train, test := testProblem(600)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		WorkerAttacks: map[int]attack.Attack{0: attack.NaNInjection{}},
		Steps:         60, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    6,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.IsFinite(res.Final) {
		t.Fatal("NaN leaked into the final model")
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("NaN injection degraded learning: accuracy %.3f", acc)
	}
}

func TestLiveWithInjectedAsynchrony(t *testing.T) {
	model, train, test := testProblem(700)
	lat := transport.NewLatencyModel(1e-3, 1.0, 0, 9) // heavy-tailed ms-scale
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		Delay: lat.DelayFunc(0, 1),
		Steps: 40, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 120 * time.Second,
		Seed:    7,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.8 {
		t.Fatalf("asynchrony broke convergence: accuracy %.3f", acc)
	}
}

// Every endpoint — and every honest node's send stack — exists before the
// first node loop starts, so no broadcast of any step can find its
// destination unregistered. The bug this pins: servers were started while
// the worker endpoints were still being registered, their step-0 parameter
// broadcasts hit "unknown destination", nothing retransmits, and a worker
// left with q−1 vectors sat out its whole quorum timeout. The network asks
// the delay function about a send only once it has found the destination,
// so counting its calls counts the sends that did not fail: every node runs
// every step of a fault-free run, which makes the total exact. CI runs this
// at -cpu 1,2 -count=5.
func TestLiveBringUpLosesNoFrameToUnregisteredEndpoints(t *testing.T) {
	model, train, _ := testProblem(31)
	const servers, workers, steps = 6, 18, 3
	// Per step: parameters to every worker, gradients to every server, and
	// the servers' parameter exchange among themselves.
	const want = steps * (servers*workers + workers*servers + servers*(servers-1))
	for round := 0; round < 5; round++ {
		var delivered atomic.Int64
		_, err := RunLive(LiveConfig{
			Model:      model,
			Train:      train,
			NumServers: servers, FServers: 1,
			NumWorkers: workers, FWorkers: 5,
			Delay: func(from, to string) time.Duration {
				delivered.Add(1)
				return time.Microsecond // makes Send yield: a late registration would lose a frame
			},
			Steps: steps, Batch: 4,
			Timeout: 20 * time.Second,
			Seed:    uint64(round),
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := delivered.Load(); got != want {
			t.Fatalf("round %d: %d of %d sends found their destination registered", round, got, want)
		}
	}
}

// TestLiveValidationRejectsIllegalDeployments pins each refusal Validate
// makes before any endpoint opens to its reason. A deployment with no
// honest server would otherwise run to the end for nothing, and an attack
// on a node that does not exist would be counted among the omniscient
// colluders without ever running.
func TestLiveValidationRejectsIllegalDeployments(t *testing.T) {
	model, train, _ := testProblem(800)
	all := map[int]attack.Attack{}
	for i := 0; i < 6; i++ {
		all[i] = attack.Zero{}
	}
	cases := []struct {
		name   string
		mutate func(*LiveConfig)
		want   string
	}{
		{"n < 3f+3", func(c *LiveConfig) { c.NumServers = 5 }, "server population n=5 violates n ≥ 3f+3"},
		{"n̄ < 3f̄+3", func(c *LiveConfig) { c.NumWorkers = 5 }, "worker population n=5 violates n ≥ 3f+3"},
		{"q > n−f", func(c *LiveConfig) { c.QuorumServers = 6 }, "server quorum q=6 violates q ≤ n−f"},
		{"q̄ < 2f̄+3", func(c *LiveConfig) { c.QuorumWorkers = 4 }, "worker quorum q=4 violates q ≥ 2f+3"},
		{"every server Byzantine", func(c *LiveConfig) { c.ServerAttacks = all }, "every server is Byzantine"},
		{"attack index out of range", func(c *LiveConfig) {
			c.WorkerAttacks = map[int]attack.Attack{99: attack.Zero{}}
		}, "worker attack index 99 outside population [0, 6)"},
		{"zero steps", func(c *LiveConfig) { c.Steps = 0 }, "cluster: Steps and Batch must be positive"},
	}
	for _, c := range cases {
		cfg := LiveConfig{Model: model, Train: train,
			NumServers: 6, FServers: 1, NumWorkers: 6, FWorkers: 1,
			Steps: 2, Batch: 4, Timeout: 5 * time.Second, Seed: 8}
		c.mutate(&cfg)
		if _, err := RunLive(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestLiveQuorumTimeoutSurfacesAsError(t *testing.T) {
	model, train, _ := testProblem(900)
	// Two actually-silent servers with f=1 and q = n−f = 5: only 4 servers
	// speak, the worker quorum can never complete. The run must fail fast
	// with a timeout error, not hang.
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		ServerAttacks: map[int]attack.Attack{
			1: attack.Silent{},
			2: attack.Silent{},
		},
		Steps: 3, Batch: 4,
		LR:      func(int) float64 { return 0.1 },
		Timeout: 300 * time.Millisecond,
		Seed:    8,
	}
	if _, err := RunLive(cfg); err == nil {
		t.Fatal("expected quorum timeout, run succeeded")
	}
}

// TestLiveFirstErrorTearsTheMeshDown: one node's failure ends the run at
// once. Every server fails its first checkpoint write (the directory is a
// regular file) while the workers wait for a full quorum of step-1
// parameters that will never come; the launcher used to sit that wait out —
// one whole Timeout — before reporting the error it had held since step 0.
func TestLiveFirstErrorTearsTheMeshDown(t *testing.T) {
	model, train, _ := testProblem(900)
	notADir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(notADir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tcp := range []bool{false, true} {
		cfg := LiveConfig{
			Model: model, Train: train,
			NumServers: 3, FServers: 0,
			NumWorkers: 3, FWorkers: 0,
			QuorumServers: 3, QuorumWorkers: 3,
			Steps: 4, Batch: 4,
			Timeout:    20 * time.Second,
			Seed:       8,
			TCP:        tcp,
			Checkpoint: &CheckpointSpec{Dir: notADir, Every: 1},
		}
		start := time.Now()
		_, err := RunLive(cfg)
		if err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("tcp=%v: want the checkpoint error first, got %v", tcp, err)
		}
		if took := time.Since(start); took > cfg.Timeout/4 {
			t.Fatalf("tcp=%v: the failed run took %s of a %s quorum timeout to return", tcp, took, cfg.Timeout)
		}
	}
}

func TestLiveDelayedServerToleratedByQuorums(t *testing.T) {
	model, train, test := testProblem(1000)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		ServerAttacks: map[int]attack.Attack{4: attack.Delayed{Period: 4}},
		Steps:         48, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    9,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.8 {
		t.Fatalf("delayed server broke convergence: accuracy %.3f", acc)
	}
}

func TestSuspicionIdentifiesByzantineWorker(t *testing.T) {
	model, train, _ := testProblem(1100)
	susp := stats.NewSuspicion()
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		WorkerAttacks: map[int]attack.Attack{3: attack.ScaledNorm{Factor: 1e4}},
		Steps:         40, Batch: 16,
		LR:        func(int) float64 { return 0.2 },
		Timeout:   60 * time.Second,
		Seed:      10,
		Suspicion: susp,
	}
	if _, err := RunLive(cfg); err != nil {
		t.Fatal(err)
	}
	ranks := susp.Ranking()
	if len(ranks) == 0 {
		t.Fatal("no suspicion data collected")
	}
	if ranks[0].Sender != WorkerID(3) {
		t.Fatalf("most-suspected sender is %s (rate %.2f), want %s\n%s",
			ranks[0].Sender, ranks[0].Rate, WorkerID(3), susp.Format())
	}
	if ranks[0].Rate < 0.9 {
		t.Fatalf("Byzantine worker only excluded %.0f%% of rounds", 100*ranks[0].Rate)
	}
}

func TestLiveTraceRecordsProtocolEvents(t *testing.T) {
	model, train, _ := testProblem(1200)
	rec := trace.NewRecorder(4096)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		Steps: 5, Batch: 8,
		LR:      func(int) float64 { return 0.1 },
		Timeout: 60 * time.Second,
		Seed:    11,
		Trace:   rec,
	}
	if _, err := RunLive(cfg); err != nil {
		t.Fatal(err)
	}
	// 6 servers × 5 steps × 4 event kinds.
	if rec.Total() < 6*5*4 {
		t.Fatalf("only %d events recorded", rec.Total())
	}
	if len(rec.Filter(ServerID(0), trace.EventQuorumComplete)) == 0 {
		t.Fatal("no quorum events for ps0")
	}
	if len(rec.Filter("", trace.EventError)) != 0 {
		t.Fatalf("unexpected error events:\n%s", rec.Dump())
	}
}

func TestLiveMomentumConverges(t *testing.T) {
	model, train, test := testProblem(1300)
	cfg := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 6, FWorkers: 1,
		Steps: 60, Batch: 16,
		LR:       func(int) float64 { return 0.05 },
		Momentum: 0.9,
		Timeout:  60 * time.Second,
		Seed:     12,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := evalFinal(t, model, res.Final, test); acc < 0.85 {
		t.Fatalf("momentum run failed to converge: %.3f", acc)
	}
}

func TestNodeIDs(t *testing.T) {
	if ServerID(3) != "ps3" || WorkerID(0) != "wrk0" {
		t.Fatalf("unexpected IDs %s %s", ServerID(3), WorkerID(0))
	}
}
