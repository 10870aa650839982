package nn

import "math"

// SoftmaxCrossEntropy computes the softmax cross-entropy loss for a single
// example and its gradient with respect to the logits. label is the true
// class index. The returned gradient slice is freshly allocated.
//
// The implementation uses the max-shift trick for numerical stability, so it
// is safe on logits of any magnitude (Byzantine models can drive activations
// to extreme values; the evaluation path must not produce NaNs of its own).
func SoftmaxCrossEntropy(logits []float64, label int) (loss float64, dlogits []float64) {
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	dlogits = make([]float64, len(logits))
	for i, v := range logits {
		e := math.Exp(v - maxL)
		dlogits[i] = e
		sum += e
	}
	logSum := math.Log(sum)
	loss = logSum - (logits[label] - maxL)
	inv := 1 / sum
	for i := range dlogits {
		dlogits[i] *= inv
	}
	dlogits[label] -= 1
	return loss, dlogits
}

// Argmax returns the index of the largest element (first winner on ties).
func Argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
