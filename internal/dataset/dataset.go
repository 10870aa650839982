// Package dataset provides the training workloads used by the experiments.
//
// The paper evaluates on CIFAR-10. That dataset is not shipped here; instead
// SynthImg (see synthimg.go) generates a procedural 10-class image
// classification task with the same tensor shape and the same role in the
// pipeline — a non-convex vision task for the CNN substrate. A
// lower-dimensional workload (Gaussian blobs) is provided for fast tests and
// for the quickstart example.
package dataset

import (
	"fmt"

	"repro/internal/tensor"
)

// Dataset is an in-memory supervised classification dataset.
type Dataset struct {
	// X holds one flat feature vector per example (channels-first for
	// images).
	X [][]float64
	// Labels holds the class index of each example.
	Labels []int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// FeatureDim is the length of each feature vector.
	FeatureDim int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks internal consistency (aligned slices, label range).
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Labels) {
		return fmt.Errorf("dataset: %d examples vs %d labels", len(d.X), len(d.Labels))
	}
	for i, x := range d.X {
		if len(x) != d.FeatureDim {
			return fmt.Errorf("dataset: example %d has dim %d, want %d", i, len(x), d.FeatureDim)
		}
		if d.Labels[i] < 0 || d.Labels[i] >= d.NumClasses {
			return fmt.Errorf("dataset: example %d has label %d outside [0,%d)",
				i, d.Labels[i], d.NumClasses)
		}
	}
	return nil
}

// Split partitions the dataset into a training set with trainFrac of the
// examples and a test set with the rest, after a seeded shuffle.
func (d *Dataset) Split(trainFrac float64, rng *tensor.RNG) (train, test *Dataset) {
	perm := rng.Perm(d.Len())
	nTrain := int(trainFrac * float64(d.Len()))
	mk := func(idx []int) *Dataset {
		out := &Dataset{
			X:          make([][]float64, len(idx)),
			Labels:     make([]int, len(idx)),
			NumClasses: d.NumClasses,
			FeatureDim: d.FeatureDim,
		}
		for i, p := range idx {
			out.X[i] = d.X[p]
			out.Labels[i] = d.Labels[p]
		}
		return out
	}
	return mk(perm[:nTrain]), mk(perm[nTrain:])
}

// Sampler draws random mini-batches from a dataset. Each worker node owns an
// independent Sampler (its G^(j) gradient distribution in the paper's
// notation), so gradient estimates at different workers are mutually
// independent, matching Assumption 3.
type Sampler struct {
	data *Dataset
	rng  *tensor.RNG
}

// NewSampler builds a sampler over d using the given generator.
func NewSampler(d *Dataset, rng *tensor.RNG) *Sampler {
	return &Sampler{data: d, rng: rng}
}

// Batch samples a mini-batch of the given size with replacement and returns
// feature and label views.
func (s *Sampler) Batch(size int) ([][]float64, []int) {
	xs := make([][]float64, size)
	labels := make([]int, size)
	for i := 0; i < size; i++ {
		j := s.rng.Intn(s.data.Len())
		xs[i] = s.data.X[j]
		labels[i] = s.data.Labels[j]
	}
	return xs, labels
}
