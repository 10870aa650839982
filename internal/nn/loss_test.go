package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits → loss = log(K).
	loss, grad := SoftmaxCrossEntropy([]float64{0, 0, 0, 0}, 2)
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want log 4", loss)
	}
	// grad = p − onehot; p uniform 0.25
	for i, g := range grad {
		want := 0.25
		if i == 2 {
			want = -0.75
		}
		if math.Abs(g-want) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", i, g, want)
		}
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		logits := rng.NormVec(make([]float64, 5), 0, 3)
		label := rng.Intn(5)
		loss, grad := SoftmaxCrossEntropy(logits, label)
		if loss < 0 || math.IsNaN(loss) {
			return false
		}
		var sum float64
		for _, g := range grad {
			sum += g
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	tests := []struct {
		xs   []float64
		want int
	}{
		{[]float64{1, 3, 2}, 1},
		{[]float64{5}, 0},
		{[]float64{2, 2, 2}, 0}, // first winner on ties
		{[]float64{-3, -1, -2}, 1},
	}
	for _, tt := range tests {
		if got := Argmax(tt.xs); got != tt.want {
			t.Fatalf("Argmax(%v) = %d, want %d", tt.xs, got, tt.want)
		}
	}
}

func TestBatchGradientAveraging(t *testing.T) {
	rng := tensor.NewRNG(20)
	m := NewMLP(rng, 2, 4, 2)
	x1, x2 := []float64{1, 0}, []float64{0, 1}

	_, gBoth := BatchGradient(m, [][]float64{x1, x2}, []int{0, 1})
	_, g1 := BatchGradient(m, [][]float64{x1}, []int{0})
	_, g2 := BatchGradient(m, [][]float64{x2}, []int{1})
	for i := range gBoth {
		want := (g1[i] + g2[i]) / 2
		if math.Abs(gBoth[i]-want) > 1e-12 {
			t.Fatalf("batch gradient not the mean at %d: %v vs %v", i, gBoth[i], want)
		}
	}
}

func TestAccuracyBounds(t *testing.T) {
	rng := tensor.NewRNG(21)
	m := NewMLP(rng, 2, 8, 2)
	xs := [][]float64{{1, 1}, {-1, -1}, {2, 2}, {-2, -2}}
	labels := []int{0, 1, 0, 1}
	acc := Accuracy(m, xs, labels)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
	if Accuracy(m, nil, nil) != 0 {
		t.Fatal("accuracy of empty set should be 0")
	}
}

// A sanity check that plain SGD on this substrate actually learns: a linearly
// separable 2-class problem should reach high accuracy quickly.
func TestSGDLearnsLinearlySeparable(t *testing.T) {
	rng := tensor.NewRNG(22)
	m := NewMLP(rng, 2, 16, 2)

	xs := make([][]float64, 200)
	labels := make([]int, 200)
	for i := range xs {
		cls := i % 2
		cx := 2.0
		if cls == 1 {
			cx = -2.0
		}
		xs[i] = []float64{cx + 0.5*rng.Norm(), 0.5 * rng.Norm()}
		labels[i] = cls
	}

	theta := m.ParamVector()
	for step := 0; step < 150; step++ {
		i := (step * 16) % len(xs)
		end := i + 16
		if end > len(xs) {
			end = len(xs)
		}
		_, g := BatchGradient(m, xs[i:end], labels[i:end])
		tensor.AXPY(theta, -0.1, g)
		if err := m.SetParamVector(theta); err != nil {
			t.Fatal(err)
		}
	}
	if acc := Accuracy(m, xs, labels); acc < 0.95 {
		t.Fatalf("SGD failed to learn separable data: accuracy %v", acc)
	}
}
