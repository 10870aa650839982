package nn

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// These tests pin the worker count and assert the parallel kernels are
// bit-identical to serial execution — the property the whole parallel layer
// is built around (fixed chunk boundaries, ordered reduction, element-
// independent decomposition). Run under -race they also exercise the
// concurrency of every nn kernel.

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

func gradBatch(n int) ([][]float64, []int) {
	rng := tensor.NewRNG(77)
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 3*8*8), 0, 1)
		labels[i] = i % 10
	}
	return xs, labels
}

func TestBatchGradientBitIdenticalAcrossWorkers(t *testing.T) {
	xs, labels := gradBatch(16) // 16 examples → 4 fixed chunks
	run := func(workers int) (float64, tensor.Vector) {
		withWorkers(t, workers)
		m := NewTinyConvNet(tensor.NewRNG(5), 10)
		return BatchGradient(m, xs, labels)
	}
	wantLoss, wantGrad := run(1)
	for _, w := range []int{2, 4, 7} {
		loss, grad := run(w)
		if loss != wantLoss {
			t.Fatalf("workers=%d changed the loss: %v vs %v", w, loss, wantLoss)
		}
		for i := range grad {
			if grad[i] != wantGrad[i] {
				t.Fatalf("workers=%d changed gradient coordinate %d: %v vs %v",
					w, i, grad[i], wantGrad[i])
			}
		}
	}
}

// TestBatchGradientSingleChunkMatchesClassicSerial pins the contract that a
// batch of at most gradChunk examples goes down the classic serial
// accumulate-in-model path — the exact arithmetic of the pre-parallel
// implementation.
func TestBatchGradientSingleChunkMatchesClassicSerial(t *testing.T) {
	withWorkers(t, 4)
	xs, labels := gradBatch(gradChunk)
	m := NewTinyConvNet(tensor.NewRNG(5), 10)
	gotLoss, gotGrad := BatchGradient(m, xs, labels)

	// Reference: the classic serial loop, accumulated in the model.
	ref := NewTinyConvNet(tensor.NewRNG(5), 10)
	ref.ZeroGrad()
	var total float64
	for i, x := range xs {
		out := ref.Forward(x)
		loss, dout := SoftmaxCrossEntropy(out, labels[i])
		total += loss
		ref.Backward(dout)
	}
	inv := 1 / float64(len(xs))
	wantLoss, wantGrad := total*inv, ref.GradVector(inv)

	if gotLoss != wantLoss {
		t.Fatalf("loss %v != classic serial %v", gotLoss, wantLoss)
	}
	for i := range gotGrad {
		if gotGrad[i] != wantGrad[i] {
			t.Fatalf("gradient coordinate %d: %v != classic serial %v",
				i, gotGrad[i], wantGrad[i])
		}
	}
}

func TestConvBackwardTwoPassMatchesOnePass(t *testing.T) {
	withWorkers(t, 4)
	onEachSide(t, func(t *testing.T) {
		rng := tensor.NewRNG(11)
		// Large enough that the two-pass gate triggers on its own in Backward.
		c1 := NewConv2D(8, 16, 16, 16, 3, 3, 1, 1, rng)
		c2 := c1.Clone().(*Conv2D)
		x := rng.NormVec(make([]float64, 8*16*16), 0, 1)
		dout := rng.NormVec(make([]float64, c1.OutputSize()), 0, 1)

		c1.Forward(x)
		din1 := append([]float64(nil), c1.backwardOnePass(dout, c1.dinBuf)...)
		c2.Forward(x)
		perOC := c2.outH * c2.outW * c2.inC * c2.kH * c2.kW
		din2 := c2.backwardTwoPass(dout, c2.dinBuf, perOC)

		for i := range din1 {
			if din1[i] != din2[i] {
				t.Fatalf("din[%d]: one-pass %v vs two-pass %v", i, din1[i], din2[i])
			}
		}
		for b, g1 := range c1.Grads() {
			g2 := c2.Grads()[b]
			for i := range g1 {
				if g1[i] != g2[i] {
					t.Fatalf("grad buffer %d cell %d: one-pass %v vs two-pass %v",
						b, i, g1[i], g2[i])
				}
			}
		}
	})
}

// TestConvForwardBitIdenticalAcrossWorkers runs chunks of four output
// channels in parallel: on the AVX2 body each is a pass of one block.
func TestConvForwardBitIdenticalAcrossWorkers(t *testing.T) {
	onEachSide(t, func(t *testing.T) {
		rng := tensor.NewRNG(13)
		conv := NewConv2D(3, 32, 32, 64, 5, 5, 1, 2, rng) // clears the size gate
		x := rng.NormVec(make([]float64, 3*32*32), 0, 1)
		withWorkers(t, 1)
		want := append([]float64(nil), conv.Forward(x)...)
		for _, w := range []int{2, 4} {
			withWorkers(t, w)
			got := conv.Forward(x)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d changed forward output %d", w, i)
				}
			}
		}
	})
}

func TestAccuracyExactAcrossWorkers(t *testing.T) {
	rng := tensor.NewRNG(17)
	m := NewTinyConvNet(rng, 10)
	xs := make([][]float64, 300)
	labels := make([]int, 300)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 3*8*8), 0, 1)
		labels[i] = i % 10
	}
	withWorkers(t, 1)
	want := Accuracy(m, xs, labels)
	for _, w := range []int{2, 4} {
		withWorkers(t, w)
		if got := Accuracy(m, xs, labels); got != want {
			t.Fatalf("workers=%d changed accuracy: %v vs %v", w, got, want)
		}
	}
}
