package gar

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Bit-identity of the parallel aggregation kernels across worker counts.
// Under -race these tests double as the concurrency exercise for every GAR
// kernel.

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

func parInputs(n, d int) []tensor.Vector {
	rng := tensor.NewRNG(99)
	vs := make([]tensor.Vector, n)
	for i := range vs {
		vs[i] = rng.NormVec(make([]float64, d), 0, 1)
	}
	return vs
}

func TestKrumScoresBitIdenticalAcrossWorkers(t *testing.T) {
	inputs := parInputs(13, 4096) // clears the row-parallel gate
	withWorkers(t, 1)
	want, err := KrumScores(inputs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		withWorkers(t, w)
		got, err := KrumScores(inputs, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d changed score %d: %v vs %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestCoordinateKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	inputs := parInputs(23, 5000) // d clears every coordinate-chunk gate
	rules := map[string]func() (tensor.Vector, error){
		"mean": func() (tensor.Vector, error) {
			s := Mean{}.NewStreamer(len(inputs[0]))
			if err := s.Fold(0, len(inputs[0]), inputs); err != nil {
				return nil, err
			}
			return s.Result()
		},
		"median": func() (tensor.Vector, error) {
			dst := make(tensor.Vector, len(inputs[0]))
			return dst, MedianInto(dst, inputs)
		},
		"trimmed-mean": func() (tensor.Vector, error) {
			return TrimmedMean{F: 5}.Aggregate(inputs)
		},
		"multi-krum": func() (tensor.Vector, error) {
			return MultiKrum{F: 5}.Aggregate(inputs)
		},
		"bulyan": func() (tensor.Vector, error) {
			return Bulyan{F: 5}.Aggregate(inputs)
		},
	}
	for name, run := range rules {
		t.Run(name, func(t *testing.T) {
			withWorkers(t, 1)
			want, err := run()
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4} {
				withWorkers(t, w)
				got, err := run()
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d changed coordinate %d: %v vs %v",
							w, i, got[i], want[i])
					}
				}
			}
		})
	}
}
