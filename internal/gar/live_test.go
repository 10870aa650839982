package gar_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// selectOnce is Multi-Krum whose whole-vector selection entry point fails
// the test: with a Suspicion attached, a live node's kept indices must come
// from the streamer that already built the distance matrix for the
// aggregate, not from a second O(n²·d) pass over the same inputs.
type selectOnce struct {
	gar.MultiKrum
	t *testing.T
}

func (r selectOnce) SelectIndices([]tensor.Vector) ([]int, error) {
	r.t.Error("SelectIndices called: the distance matrix was built a second time")
	return nil, nil
}

// TestSuspicionSelectsOnce runs the accountability example's shape (6
// servers, 9 workers, two of them attacking, whole-vector framing) on the
// live runtime: the exclusions Suspicion is told about come from the
// streamer (SelectIndices is never called) and are the right ones.
func TestSuspicionSelectsOnce(t *testing.T) {
	data := dataset.Blobs(600, 3, 3, 0.5, 1150)
	train, _ := data.Split(0.8, tensor.NewRNG(1151))
	susp := stats.NewSuspicion()
	cfg := cluster.LiveConfig{
		Model:      nn.NewMLP(tensor.NewRNG(1152), 2, 16, 3),
		Train:      train,
		NumServers: 6, FServers: 1,
		NumWorkers: 9, FWorkers: 2,
		WorkerAttacks: map[int]attack.Attack{
			2: attack.ScaledNorm{Factor: 1e5},
			7: attack.NewRandomGaussian(100, 54),
		},
		Rule:  selectOnce{gar.MultiKrum{F: 2}, t},
		Steps: 15, Batch: 8,
		LR:        func(int) float64 { return 0.2 },
		Timeout:   60 * time.Second,
		Seed:      55,
		Suspicion: susp,
	}
	if _, err := cluster.RunLive(cfg); err != nil {
		t.Fatal(err)
	}
	// Which senders make a first-q̄-of-n̄ quorum is the scheduler's choice (on
	// one processor wrk7 never does), so nothing below depends on it: an
	// attacker that took part was excluded every time, and every round kept
	// q̄ − f̄ − 2 vectors — all of them, therefore, honest. There is no floor
	// on a single honest sender's rate: one that only made the first step's
	// quorums can be outside the kept three in all six of them.
	ranks := susp.Ranking()
	if len(ranks) == 0 {
		t.Fatal("Suspicion observed no round")
	}
	attacker := make(map[string]bool)
	for j := range cfg.WorkerAttacks {
		attacker[cluster.WorkerID(j)] = true
	}
	seen, kept := 0, 0
	for _, r := range ranks {
		seen += r.Rounds
		kept += r.Rounds - int(math.Round(r.Rate*float64(r.Rounds)))
		if attacker[r.Sender] && r.Rate != 1 {
			t.Errorf("attacker %s was kept in some of its %d rounds (exclusion rate %v)", r.Sender, r.Rounds, r.Rate)
		}
	}
	q := gar.MinQuorum(cfg.FWorkers)
	if want := seen / q * (q - cfg.FWorkers - 2); seen%q != 0 || kept != want {
		t.Errorf("%d participations, %d kept; want whole quorums of %d keeping %d each", seen, kept, q, q-cfg.FWorkers-2)
	}
	if t.Failed() {
		t.Log(susp.Format())
	}
}
