package nn

import "math"

// ReLU is the rectified-linear activation, applied element-wise. Both passes
// select on bit patterns instead of branching on signs, which are as good as
// random after a convolution: the compiler turns each `if` below into a
// conditional move.
type ReLU struct {
	size   int
	outBuf []float64 // also Backward's mask: bits non-zero exactly where x > 0
	dinBuf []float64
}

var _ Layer = (*ReLU)(nil)

// NewReLU builds a ReLU over activations of the given size.
func NewReLU(size int) *ReLU {
	return &ReLU{
		size:   size,
		outBuf: make([]float64, size),
		dinBuf: make([]float64, size),
	}
}

// Forward computes max(0, x): x where x > 0 and +0 elsewhere (NaN, −0 and
// negatives included). x > 0 exactly when its bits lie in [1, bits(+Inf)].
func (r *ReLU) Forward(x []float64) []float64 {
	out := r.outBuf[:len(x)]
	for i, v := range x {
		b := math.Float64bits(v)
		var m uint64
		if b-1 < 0x7ff0<<48 {
			m = ^uint64(0)
		}
		out[i] = math.Float64frombits(b & m)
	}
	return r.outBuf
}

// Backward passes the gradient through, bits untouched, where the forward
// input was positive — where the forward output is not +0 — and gives +0
// elsewhere.
func (r *ReLU) Backward(dout []float64) []float64 {
	out, din := r.outBuf[:len(dout)], r.dinBuf[:len(dout)]
	for i, d := range dout {
		var m uint64
		if math.Float64bits(out[i]) != 0 {
			m = ^uint64(0)
		}
		din[i] = math.Float64frombits(math.Float64bits(d) & m)
	}
	return r.dinBuf
}

// Params returns no parameters (ReLU is parameter-free).
func (r *ReLU) Params() [][]float64 { return nil }

// Grads returns no gradients.
func (r *ReLU) Grads() [][]float64 { return nil }

// OutputSize returns the activation size.
func (r *ReLU) OutputSize() int { return r.size }

// Clone returns a fresh ReLU of the same size.
func (r *ReLU) Clone() Layer { return NewReLU(r.size) }
