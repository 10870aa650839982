package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates dLoss/dθ by central finite differences, where the
// loss is softmax cross-entropy of the model output on (x, label).
func numericalGrad(m *Sequential, x []float64, label int) tensor.Vector {
	const h = 1e-5
	theta := m.ParamVector()
	grad := make(tensor.Vector, len(theta))
	for i := range theta {
		orig := theta[i]

		theta[i] = orig + h
		if err := m.SetParamVector(theta); err != nil {
			panic(err)
		}
		lp, _ := SoftmaxCrossEntropy(m.Forward(x), label)

		theta[i] = orig - h
		if err := m.SetParamVector(theta); err != nil {
			panic(err)
		}
		lm, _ := SoftmaxCrossEntropy(m.Forward(x), label)

		grad[i] = (lp - lm) / (2 * h)
		theta[i] = orig
	}
	if err := m.SetParamVector(theta); err != nil {
		panic(err)
	}
	return grad
}

func analyticGrad(m *Sequential, x []float64, label int) tensor.Vector {
	m.ZeroGrad()
	out := m.Forward(x)
	_, dout := SoftmaxCrossEntropy(out, label)
	m.Backward(dout)
	return m.GradVector(1)
}

func checkGrads(t *testing.T, m *Sequential, x []float64, label int) {
	t.Helper()
	ana := analyticGrad(m, x, label)
	num := numericalGrad(m, x, label)
	for i := range ana {
		diff := math.Abs(ana[i] - num[i])
		scale := 1 + math.Abs(ana[i]) + math.Abs(num[i])
		if diff/scale > 1e-5 {
			t.Fatalf("gradient mismatch at θ[%d]: analytic %v vs numeric %v",
				i, ana[i], num[i])
		}
	}
}

func TestGradCheckDense(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewSequential(NewDense(4, 3, rng))
	x := rng.NormVec(make([]float64, 4), 0, 1)
	checkGrads(t, m, x, 1)
}

func TestGradCheckMLP(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewMLP(rng, 5, 8, 6, 3)
	x := rng.NormVec(make([]float64, 5), 0, 1)
	checkGrads(t, m, x, 2)
}

func TestGradCheckConv(t *testing.T) {
	rng := tensor.NewRNG(3)
	conv := NewConv2D(2, 5, 5, 3, 3, 3, 1, 1, rng)
	m := NewSequential(conv, NewReLU(conv.OutputSize()),
		NewDense(conv.OutputSize(), 4, rng))
	x := rng.NormVec(make([]float64, 2*5*5), 0, 1)
	checkGrads(t, m, x, 0)
}

func TestGradCheckConvStride2(t *testing.T) {
	rng := tensor.NewRNG(4)
	conv := NewConv2D(1, 6, 6, 2, 3, 3, 2, 0, rng)
	m := NewSequential(conv, NewDense(conv.OutputSize(), 3, rng))
	x := rng.NormVec(make([]float64, 36), 0, 1)
	checkGrads(t, m, x, 1)
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := tensor.NewRNG(5)
	conv := NewConv2D(1, 6, 6, 2, 3, 3, 1, 1, rng)
	pool := NewMaxPool2D(2, 6, 6, 2, 2, 0)
	m := NewSequential(conv, pool, NewDense(pool.OutputSize(), 3, rng))
	x := rng.NormVec(make([]float64, 36), 0, 1)
	checkGrads(t, m, x, 2)
}

func TestGradCheckTinyConvNet(t *testing.T) {
	if testing.Short() {
		t.Skip("finite differences over ~2.7k params")
	}
	rng := tensor.NewRNG(6)
	m := NewTinyConvNet(rng, 10)
	x := rng.NormVec(make([]float64, 3*8*8), 0, 1)
	checkGrads(t, m, x, 7)
}

func TestGradCheckPaddedPool(t *testing.T) {
	rng := tensor.NewRNG(7)
	pool := NewMaxPool2D(1, 5, 5, 3, 2, 1)
	m := NewSequential(pool, NewDense(pool.OutputSize(), 2, rng))
	x := rng.NormVec(make([]float64, 25), 0, 1)
	checkGrads(t, m, x, 0)
}
