package dataset

import (
	"testing"

	"repro/internal/tensor"
)

// defaultSynthImg is the harness-sized image task: 8×8×3, ten classes.
func defaultSynthImg(examples int) SynthImgConfig {
	return SynthImgConfig{Size: 8, NumClasses: 10, Examples: examples, Noise: 0.25, Seed: 1}
}

func TestSynthImgShapeAndBalance(t *testing.T) {
	cfg := defaultSynthImg(200)
	d := SynthImg(cfg)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.FeatureDim != 3*8*8 {
		t.Fatalf("FeatureDim = %d", d.FeatureDim)
	}
	counts := make([]int, d.NumClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d examples, want 20", c, n)
		}
	}
}

func TestSynthImgDeterminism(t *testing.T) {
	cfg := defaultSynthImg(50)
	a, b := SynthImg(cfg), SynthImg(cfg)
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("generation not deterministic at example %d pixel %d", i, j)
			}
		}
	}
	cfg.Seed = 2
	c := SynthImg(cfg)
	same := true
	for j := range a.X[0] {
		if a.X[0][j] != c.X[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical images")
	}
}

func TestSynthImgClassesAreDistinguishable(t *testing.T) {
	// Mean images of different classes must be further apart than the
	// within-class spread, otherwise the task is pure noise.
	cfg := SynthImgConfig{Size: 8, NumClasses: 4, Examples: 400, Noise: 0.25, Seed: 3}
	d := SynthImg(cfg)
	means := make([]tensor.Vector, cfg.NumClasses)
	counts := make([]int, cfg.NumClasses)
	for i := range means {
		means[i] = make(tensor.Vector, d.FeatureDim)
	}
	for i, x := range d.X {
		tensor.AddInPlace(means[d.Labels[i]], x)
		counts[d.Labels[i]]++
	}
	for i := range means {
		tensor.ScaleInPlace(means[i], 1/float64(counts[i]))
	}
	minBetween := tensor.MaxPairwiseDistance(means)
	for i := 0; i < len(means); i++ {
		for j := i + 1; j < len(means); j++ {
			if dd := tensor.Distance(means[i], means[j]); dd < minBetween {
				minBetween = dd
			}
		}
	}
	if minBetween < 0.5 {
		t.Fatalf("class means nearly coincide (min distance %v); task is unlearnable", minBetween)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := Blobs(10, 2, 3, 0.5, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.Labels[0] = 7
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range label not caught")
	}
	d.Labels[0] = 0
	d.X[0] = []float64{1}
	if err := d.Validate(); err == nil {
		t.Fatal("bad feature dim not caught")
	}
	d.X[0] = []float64{1, 2}
	d.Labels = d.Labels[:5]
	if err := d.Validate(); err == nil {
		t.Fatal("misaligned slices not caught")
	}
}

func TestSplitPartitions(t *testing.T) {
	d := Blobs(100, 4, 3, 0.5, 2)
	rng := tensor.NewRNG(9)
	train, test := d.Split(0.8, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerBatch(t *testing.T) {
	d := Blobs(50, 5, 3, 0.5, 4)
	s := NewSampler(d, tensor.NewRNG(5))
	xs, labels := s.Batch(16)
	if len(xs) != 16 || len(labels) != 16 {
		t.Fatalf("batch sizes %d/%d", len(xs), len(labels))
	}
	for i := range xs {
		if len(xs[i]) != 2 {
			t.Fatalf("batch feature dim %d", len(xs[i]))
		}
		if labels[i] < 0 || labels[i] >= 5 {
			t.Fatalf("batch label %d out of range", labels[i])
		}
	}
}

func TestSamplersAreIndependent(t *testing.T) {
	d := Blobs(1000, 2, 3, 0.5, 6)
	s1 := NewSampler(d, tensor.NewRNG(100))
	s2 := NewSampler(d, tensor.NewRNG(200))
	_, l1 := s1.Batch(64)
	_, l2 := s2.Batch(64)
	same := 0
	for i := range l1 {
		if l1[i] == l2[i] {
			same++
		}
	}
	if same == len(l1) {
		t.Fatal("two samplers with different seeds drew identical batches")
	}
}

func TestBlobsValid(t *testing.T) {
	if err := Blobs(100, 10, 4, 0.3, 8).Validate(); err != nil {
		t.Fatal(err)
	}
}
