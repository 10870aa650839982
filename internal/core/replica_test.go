package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// countingLayer counts the clones of the model it sits in: cloning a model
// clones each of its layers once.
type countingLayer struct {
	nn.Layer
	clones *atomic.Int64
}

func (l countingLayer) Clone() nn.Layer {
	l.clones.Add(1)
	return countingLayer{l.Layer.Clone(), l.clones}
}

// countedBlobModel is BlobWorkload's 2-16-3 MLP with a clone counter in it.
func countedBlobModel(clones *atomic.Int64) *nn.Sequential {
	rng := tensor.NewRNG(3)
	return nn.NewSequential(
		countingLayer{nn.NewDense(2, 16, rng), clones}, nn.NewReLU(16),
		nn.NewDense(16, 3, rng),
	)
}

// serialKernels keeps nn's kernels on one goroutine for the test, so
// BatchGradient and Accuracy clone no per-call chunk replicas of their own.
func serialKernels(t *testing.T) {
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

// TestSimClonesOneWorkerReplica: the simulator computes its workers one at
// a time, so it clones the model once for all of them, plus once for
// evaluation — not once per honest worker.
func TestSimClonesOneWorkerReplica(t *testing.T) {
	serialKernels(t)
	var clones atomic.Int64
	w := BlobWorkload(300, 4)
	w.Model = countedBlobModel(&clones)
	cfg := fastGuanYu(w, 5, 4)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := clones.Load(); got != 2 {
		t.Fatalf("Sim of %d workers cloned the model %d times, want 2 (one worker replica, one eval model)",
			cfg.NumWorkers, got)
	}
}

// TestLiveClonesFewerReplicasThanWorkers: the workers of a live run lease
// their model from one free list for the span of a gradient, so the run
// clones as many replicas as compute at once, not one per worker.
func TestLiveClonesFewerReplicasThanWorkers(t *testing.T) {
	serialKernels(t)
	var clones atomic.Int64
	w := BlobWorkload(300, 4)
	cfg := cluster.LiveConfig{
		Model:      countedBlobModel(&clones),
		Train:      w.Train,
		NumServers: 3, NumWorkers: 9,
		Steps: 6, Batch: 4,
		Timeout: 60 * time.Second,
		Seed:    4,
	}
	if _, err := cluster.RunLiveContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := clones.Load(); got < 1 || got >= int64(cfg.NumWorkers) {
		t.Fatalf("a live run of %d workers cloned the model %d times, want 1 to %d",
			cfg.NumWorkers, got, cfg.NumWorkers-1)
	}
}
