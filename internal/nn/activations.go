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

// Tanh is the hyperbolic-tangent activation, applied element-wise.
type Tanh struct {
	size   int
	outBuf []float64
	dinBuf []float64
}

var _ Layer = (*Tanh)(nil)

// NewTanh builds a Tanh over activations of the given size.
func NewTanh(size int) *Tanh {
	return &Tanh{
		size:   size,
		outBuf: make([]float64, size),
		dinBuf: make([]float64, size),
	}
}

// Forward computes tanh(x).
func (t *Tanh) Forward(x []float64) []float64 {
	for i, v := range x {
		t.outBuf[i] = math.Tanh(v)
	}
	return t.outBuf
}

// Backward uses d tanh(x)/dx = 1 − tanh²(x) from the cached output.
func (t *Tanh) Backward(dout []float64) []float64 {
	for i, d := range dout {
		y := t.outBuf[i]
		t.dinBuf[i] = d * (1 - y*y)
	}
	return t.dinBuf
}

// Params returns no parameters.
func (t *Tanh) Params() [][]float64 { return nil }

// Grads returns no gradients.
func (t *Tanh) Grads() [][]float64 { return nil }

// OutputSize returns the activation size.
func (t *Tanh) OutputSize() int { return t.size }

// Clone returns a fresh Tanh of the same size.
func (t *Tanh) Clone() Layer { return NewTanh(t.size) }

// Sigmoid is the logistic activation, applied element-wise.
type Sigmoid struct {
	size   int
	outBuf []float64
	dinBuf []float64
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid builds a Sigmoid over activations of the given size.
func NewSigmoid(size int) *Sigmoid {
	return &Sigmoid{
		size:   size,
		outBuf: make([]float64, size),
		dinBuf: make([]float64, size),
	}
}

// Forward computes 1/(1+e^−x), branch-stabilised for large |x|.
func (s *Sigmoid) Forward(x []float64) []float64 {
	for i, v := range x {
		if v >= 0 {
			e := math.Exp(-v)
			s.outBuf[i] = 1 / (1 + e)
		} else {
			e := math.Exp(v)
			s.outBuf[i] = e / (1 + e)
		}
	}
	return s.outBuf
}

// Backward uses dσ/dx = σ(1−σ) from the cached output.
func (s *Sigmoid) Backward(dout []float64) []float64 {
	for i, d := range dout {
		y := s.outBuf[i]
		s.dinBuf[i] = d * y * (1 - y)
	}
	return s.dinBuf
}

// Params returns no parameters.
func (s *Sigmoid) Params() [][]float64 { return nil }

// Grads returns no gradients.
func (s *Sigmoid) Grads() [][]float64 { return nil }

// OutputSize returns the activation size.
func (s *Sigmoid) OutputSize() int { return s.size }

// Clone returns a fresh Sigmoid of the same size.
func (s *Sigmoid) Clone() Layer { return NewSigmoid(s.size) }
