package guanyu

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Workload bundles a model template with its train/test datasets; every
// node clones the template, so one Workload describes the whole deployment.
type Workload = core.Workload

// Model is a feed-forward network (the template in a Workload).
type Model = nn.Sequential

// Dataset is a labelled example set.
type Dataset = dataset.Dataset

// The paper's testbed scale: 18 workers and, for GuanYu deployments, 6
// parameter servers (1 for the vanilla baselines); up to 5 Byzantine
// workers and 1 Byzantine server.
const (
	PaperWorkers    = core.PaperWorkers
	PaperServers    = core.PaperServers
	PaperByzWorkers = core.PaperByzWorkers
	PaperByzServers = core.PaperByzServers
)

// ImageWorkload builds the standard experiment workload: the SynthImg-10
// procedural image task (the CIFAR-10 substitute) with the tiny CNN sized
// for single-CPU runs.
func ImageWorkload(examples int, seed uint64) Workload {
	return core.ImageWorkload(examples, seed)
}

// BlobWorkload builds the fast low-dimensional workload (Gaussian blobs +
// a small MLP) used by tests, examples and quick local runs.
func BlobWorkload(examples int, seed uint64) Workload {
	return core.BlobWorkload(examples, seed)
}

// Schedule is a learning-rate schedule η_t. The paper's convergence proof
// requires the Robbins-Monro conditions Σ η_t = ∞ and Σ η_t² < ∞.
type Schedule = core.Schedule

// ConstantLR returns a constant schedule (finite-horizon experiments only).
func ConstantLR(eta float64) Schedule { return core.ConstantLR(eta) }

// InverseTimeLR returns η_t = eta0 / (1 + t/halfLife), the canonical
// Robbins-Monro-compliant schedule used throughout the experiments.
func InverseTimeLR(eta0, halfLife float64) Schedule { return core.InverseTimeLR(eta0, halfLife) }

// Accuracy returns the model's classification accuracy on the examples.
func Accuracy(m *Model, xs [][]float64, labels []int) float64 {
	return nn.Accuracy(m, xs, labels)
}

// SaveCheckpoint writes m's parameters to w as a server checkpoint file
// (the format WithCheckpointDir snapshots use; see the cluster checkpoint
// codec), stamped with node id and step, the last completed step.
func SaveCheckpoint(w io.Writer, id string, m *Model, step int) error {
	data, err := cluster.EncodeCheckpoint(cluster.Checkpoint{ID: id, Step: step, Theta: m.ParamVector()})
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// IsFinite reports whether every coordinate of v is finite — false means a
// NaN/Inf payload destroyed the model (what happens to the unprotected
// baseline under a NaN injection).
func IsFinite(v []float64) bool { return tensor.IsFinite(v) }
