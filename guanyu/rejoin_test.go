package guanyu_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/guanyu"
	"repro/internal/cluster"
)

// elasticOpts is the quorum-slack deployment the rejoin cycle needs: all
// honest with f=0 declared, so q=3 of 6 servers rides out one dead peer.
func elasticOpts(t *testing.T, extra ...guanyu.Option) []guanyu.Option {
	opts := []guanyu.Option{
		guanyu.WithWorkload(guanyu.BlobWorkload(600, 7)),
		guanyu.WithServers(6, 0),
		guanyu.WithWorkers(6, 0),
		guanyu.WithQuorums(3, 3),
		guanyu.WithRule("coordinate-median"),
		guanyu.WithParamRule("coordinate-median"),
		guanyu.WithSteps(30),
		guanyu.WithBatch(8),
		guanyu.WithLR(guanyu.InverseTimeLR(0.2, 100)),
		guanyu.WithSeed(11),
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithTimeout(time.Minute),
		// Keep the in-process run slow enough for the kill watcher to fire
		// mid-run (see the cluster-level churn test).
		guanyu.WithDelay(func(string, string) time.Duration { return 2 * time.Millisecond }),
		guanyu.WithCheckpointDir(t.TempDir(), 3),
	}
	return append(opts, extra...)
}

// TestNewValidatesRejoin covers the checkpoint/rejoin option surface: every
// illegal combination must be rejected at New, not at the first step.
func TestNewValidatesRejoin(t *testing.T) {
	base := []guanyu.Option{
		guanyu.WithWorkload(guanyu.BlobWorkload(200, 1)),
		guanyu.WithServers(6, 0),
		guanyu.WithWorkers(6, 0),
		guanyu.WithQuorums(3, 3),
		guanyu.WithSteps(30),
		guanyu.WithRuntime(guanyu.Live),
	}
	with := func(extra ...guanyu.Option) []guanyu.Option {
		return append(append([]guanyu.Option{}, base...), extra...)
	}
	dir := t.TempDir()
	cases := []struct {
		name string
		opts []guanyu.Option
		want string
	}{
		{"checkpoint on sim", []guanyu.Option{
			guanyu.WithWorkload(guanyu.BlobWorkload(200, 1)),
			guanyu.WithCheckpointDir(dir, 3),
		}, "WithCheckpointDir and WithRejoin apply to the Live runtime only"},
		{"rejoin without checkpoint", with(guanyu.WithRejoin(0, 8)),
			"churn needs a checkpoint directory"},
		{"rejoin over tcp", with(guanyu.WithCheckpointDir(dir, 3),
			guanyu.WithRejoin(0, 8), guanyu.WithTCPTransport()),
			"churn drives the channel mesh"},
		{"rejoin server out of range", with(guanyu.WithCheckpointDir(dir, 3),
			guanyu.WithRejoin(6, 8)),
			"churn targets server 6 of 6"},
		{"rejoin byzantine victim", with(guanyu.WithCheckpointDir(dir, 3),
			guanyu.WithRejoin(0, 8), guanyu.WithServerAttack(0, guanyu.Zero{})),
			"churn victim 0 is Byzantine"},
		{"kill past the run", with(guanyu.WithCheckpointDir(dir, 3),
			guanyu.WithRejoin(0, 30)),
			"churn kill step 30 outside (0, 30)"},
		{"kill before first checkpoint", with(guanyu.WithCheckpointDir(dir, 9),
			guanyu.WithRejoin(0, 5)),
			"churn checkpoint cadence 9 outside [1, kill step 5]"},
	}
	for _, c := range cases {
		if _, err := guanyu.New(c.opts...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if _, err := guanyu.New(guanyu.WithCheckpointDir("", 3)); err == nil || !strings.Contains(err.Error(), "checkpoint directory is empty") {
		t.Errorf("empty checkpoint dir: got %v", err)
	}
	if _, err := guanyu.New(guanyu.WithCheckpointDir(dir, 0)); err == nil || !strings.Contains(err.Error(), "checkpoint cadence must be ≥ 1 step, got 0") {
		t.Errorf("zero cadence: got %v", err)
	}
}

// TestLiveRejoinThroughBuilder drives the whole elastic path through the
// public façade: WithCheckpointDir + WithRejoin kill an honest server
// mid-run and bring it back through checkpoint restore + median catch-up,
// and the deployment still converges.
func TestLiveRejoinThroughBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 12-node live deployment with a restart")
	}
	d, err := guanyu.New(elasticOpts(t, guanyu.WithRejoin(0, 8))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChurnRestarted {
		t.Fatal("rejoin cycle never fired: the victim outran the kill")
	}
	if len(res.ServerParams) != 6 {
		t.Fatalf("got %d honest finals, want 6 (did the churned server finish?)", len(res.ServerParams))
	}
	if res.FinalAccuracy < 0.85 {
		t.Fatalf("deployment with rejoin failed to converge: accuracy %.3f", res.FinalAccuracy)
	}
}

// TestRunNodeValidatesCheckpointConfig covers the per-process façade's
// checkpoint surface without booting any sockets: every rejection happens
// before the node listens.
func TestRunNodeValidatesCheckpointConfig(t *testing.T) {
	ctx := context.Background()
	base := guanyu.NodeConfig{
		Role: "worker", ID: "wrk0",
		Peers: map[string]string{"wrk0": "127.0.0.1:1"},
		Steps: 1, Batch: 1,
	}
	ckpt := &guanyu.CheckpointSpec{Dir: t.TempDir(), Every: 2}

	cfg := base
	cfg.Checkpoint = ckpt
	if _, err := guanyu.RunNode(ctx, cfg); err == nil || !strings.Contains(err.Error(), "checkpoint/rejoin are server-side") {
		t.Errorf("worker checkpoint: got %v", err)
	}

	cfg = base
	cfg.Role, cfg.ID = "server", "ps0"
	cfg.Peers = map[string]string{"ps0": "127.0.0.1:1"}
	cfg.Rejoin = true
	if _, err := guanyu.RunNode(ctx, cfg); err == nil || !strings.Contains(err.Error(), "Rejoin requires Checkpoint") {
		t.Errorf("rejoin without checkpoint: got %v", err)
	}

	cfg.Checkpoint = ckpt
	cfg.Attack = guanyu.Zero{}
	if _, err := guanyu.RunNode(ctx, cfg); err == nil || !strings.Contains(err.Error(), "Rejoin is an honest-recovery path") {
		t.Errorf("byzantine rejoin: got %v", err)
	}

	cfg.Attack = nil
	cfg.Checkpoint = &guanyu.CheckpointSpec{Dir: "", Every: 2}
	if _, err := guanyu.RunNode(ctx, cfg); err == nil || !strings.Contains(err.Error(), "checkpoint directory is empty") {
		t.Errorf("empty checkpoint dir: got %v", err)
	}

	// The paper's population bound, checked on the address book: two
	// servers cannot make n ≥ 3f+3 even with f = 0.
	cfg = base
	cfg.Role, cfg.ID = "server", "ps0"
	cfg.Peers = map[string]string{"ps0": "127.0.0.1:1", "ps1": "127.0.0.1:2",
		"wrk0": "127.0.0.1:3", "wrk1": "127.0.0.1:4", "wrk2": "127.0.0.1:5"}
	if _, err := guanyu.RunNode(ctx, cfg); err == nil || !strings.Contains(err.Error(), "server population n=2 violates n ≥ 3f+3") {
		t.Errorf("two servers: got %v", err)
	}
}

// TestSaveCheckpointRoundTrip: the final-model file guanyu-node -checkpoint
// writes is a server checkpoint — it decodes with the cluster codec to the
// stamped ID and step and a bit-identical θ, and a truncated file is
// refused.
func TestSaveCheckpointRoundTrip(t *testing.T) {
	m := guanyu.BlobWorkload(60, 3).Model
	var buf bytes.Buffer
	if err := guanyu.SaveCheckpoint(&buf, "ps2", m, 41); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.DecodeCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "ps2" || got.Step != 41 {
		t.Fatalf("decoded (ID %q, step %d), want (\"ps2\", 41)", got.ID, got.Step)
	}
	want := m.ParamVector()
	if len(got.Theta) != len(want) {
		t.Fatalf("decoded dimension %d, want %d", len(got.Theta), len(want))
	}
	for i := range want {
		if math.Float64bits(got.Theta[i]) != math.Float64bits(want[i]) {
			t.Fatalf("θ[%d] = %v, want %v", i, got.Theta[i], want[i])
		}
	}
	if _, err := cluster.DecodeCheckpoint(buf.Bytes()[:buf.Len()-1]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
