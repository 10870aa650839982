package gar_test

import (
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
// live runtime.
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
	ranks := susp.Ranking()
	if len(ranks) < 2 {
		t.Fatalf("suspicion ranking has %d senders:\n%s", len(ranks), susp.Format())
	}
	top := map[string]bool{ranks[0].Sender: true, ranks[1].Sender: true}
	if !top[cluster.WorkerID(2)] || !top[cluster.WorkerID(7)] {
		t.Fatalf("most-suspected senders are %v, want the two attackers\n%s", top, susp.Format())
	}
}
