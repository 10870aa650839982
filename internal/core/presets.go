package core

import (
	"maps"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Workload bundles a model template with its dataset.
type Workload struct {
	// Model is the template network (cloned per node).
	Model *nn.Sequential
	// Train and Test are the example sets.
	Train, Test *dataset.Dataset
}

// ImageWorkload builds the experiment harness's standard workload: the
// SynthImg-10 procedural image task (the CIFAR-10 substitute) with the tiny
// CNN sized for single-CPU runs.
func ImageWorkload(examples int, seed uint64) Workload {
	data := dataset.SynthImg(dataset.SynthImgConfig{
		Size: 8, NumClasses: 10, Examples: examples, Noise: 0.25, Seed: seed,
	})
	train, test := data.Split(0.85, tensor.NewRNG(seed+1))
	return Workload{
		Model: nn.NewTinyConvNet(tensor.NewRNG(seed+2), 10),
		Train: train,
		Test:  test,
	}
}

// BlobWorkload builds the fast low-dimensional workload used by tests.
func BlobWorkload(examples int, seed uint64) Workload {
	data := dataset.Blobs(examples, 3, 3, 0.5, seed)
	train, test := data.Split(0.8, tensor.NewRNG(seed+1))
	return Workload{
		Model: nn.NewMLP(tensor.NewRNG(seed+2), 2, 16, 3),
		Train: train,
		Test:  test,
	}
}

// PaperScale are the node counts of the paper's testbed: 18 workers and,
// for GuanYu deployments, 6 parameter servers (1 for the vanilla
// baselines); up to 5 Byzantine workers and 1 Byzantine server.
const (
	PaperWorkers        = 18
	PaperServers        = 6
	PaperByzWorkers     = 5
	PaperByzServers     = 1
	PaperBatch          = 128
	PaperSmallBatch     = 32
	PaperAccuracyTarget = 0.60
)

// VanillaTF returns the "vanilla TF" baseline: one parameter server, mean
// aggregation over all workers, optimized runtime (no serialization
// overhead on the virtual clock).
func VanillaTF(w Workload, steps, batch int, seed uint64) Config {
	cost := DefaultCostModel(seed + 101)
	cost.OptimizedRuntime = true
	return Config{
		Mode:       ModeVanilla,
		Model:      w.Model,
		Train:      w.Train,
		Test:       w.Test,
		NumServers: 1,
		NumWorkers: PaperWorkers,
		Steps:      steps,
		Batch:      batch,
		Cost:       cost,
		Seed:       seed,
	}
}

// VanillaGuanYu returns the "GuanYu (vanilla)" baseline: exactly the same
// topology and aggregation as vanilla TF, but with communication handled
// outside the optimized runtime — the configuration that isolates the
// 65%-class overhead of Section 5.3.
func VanillaGuanYu(w Workload, steps, batch int, seed uint64) Config {
	cfg := VanillaTF(w, steps, batch, seed)
	cfg.Cost.OptimizedRuntime = false
	return cfg
}

// GuanYu returns the full Byzantine-resilient deployment with the paper's
// node counts and declared Byzantine numbers fWorkers/fServers.
func GuanYu(w Workload, fWorkers, fServers, steps, batch int, seed uint64) Config {
	return Config{
		Mode:       ModeGuanYu,
		Model:      w.Model,
		Train:      w.Train,
		Test:       w.Test,
		NumServers: PaperServers,
		FServers:   fServers,
		NumWorkers: PaperWorkers,
		FWorkers:   fWorkers,
		Steps:      steps,
		Batch:      batch,
		Seed:       seed,
	}
}

// WithByzantineWorkers installs actual Byzantine workers 0..count-1 running
// the given behaviour factory (called per node so stateful attacks don't
// share generators).
func WithByzantineWorkers(cfg Config, count int, mk func(i int) attack.Attack) Config {
	cfg.WorkerAttacks = withAttacks(cfg.WorkerAttacks, count, mk)
	return cfg
}

// WithByzantineServers installs actual Byzantine servers 0..count-1.
func WithByzantineServers(cfg Config, count int, mk func(i int) attack.Attack) Config {
	cfg.ServerAttacks = withAttacks(cfg.ServerAttacks, count, mk)
	return cfg
}

// withAttacks copies attacks and sets nodes 0..count-1 to mk's behaviours,
// leaving the caller's map untouched.
func withAttacks(attacks map[int]attack.Attack, count int, mk func(i int) attack.Attack) map[int]attack.Attack {
	out := make(map[int]attack.Attack, count+len(attacks))
	maps.Copy(out, attacks)
	for i := 0; i < count; i++ {
		out[i] = mk(i)
	}
	return out
}
