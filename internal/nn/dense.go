package nn

import (
	"math"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer: y = W·x + b.
type Dense struct {
	in, out int

	w     *tensor.Matrix // out × in
	b     []float64
	gradW *tensor.Matrix
	gradB []float64

	lastIn  []float64 // retained for Backward
	outBuf  []float64
	dinBuf  []float64
	paramsV [][]float64
	gradsV  [][]float64
}

var _ Layer = (*Dense)(nil)

// NewDense builds an in→out fully-connected layer with He-uniform
// initialisation (suited to the ReLU activations used throughout).
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{
		in:    in,
		out:   out,
		w:     tensor.NewMatrix(out, in),
		b:     make([]float64, out),
		gradW: tensor.NewMatrix(out, in),
		gradB: make([]float64, out),

		outBuf: make([]float64, out),
		dinBuf: make([]float64, in),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = (2*rng.Float64() - 1) * limit
	}
	d.paramsV = [][]float64{d.w.Data, d.b}
	d.gradsV = [][]float64{d.gradW.Data, d.gradB}
	return d
}

// Forward computes W·x + b.
func (d *Dense) Forward(x []float64) []float64 {
	d.lastIn = x
	d.w.MatVec(d.outBuf, x)
	for i := range d.outBuf {
		d.outBuf[i] += d.b[i]
	}
	return d.outBuf
}

// Backward accumulates the parameter gradients (backwardParams) and returns
// dL/dx = Wᵀ·dout.
func (d *Dense) Backward(dout []float64) []float64 {
	d.backwardParams(dout)
	d.w.MatVecT(d.dinBuf, dout)
	return d.dinBuf
}

// backwardParams accumulates dL/dW += dout·xᵀ and dL/db += dout.
func (d *Dense) backwardParams(dout []float64) {
	d.gradW.AddOuter(1, dout, d.lastIn)
	for i := range dout {
		d.gradB[i] += dout[i]
	}
}

// Params returns [weights, bias].
func (d *Dense) Params() [][]float64 { return d.paramsV }

// Grads returns [dW, db].
func (d *Dense) Grads() [][]float64 { return d.gradsV }

// OutputSize returns the layer's output width.
func (d *Dense) OutputSize() int { return d.out }

// Clone returns a deep copy with fresh scratch buffers.
func (d *Dense) Clone() Layer {
	c := &Dense{
		in:     d.in,
		out:    d.out,
		w:      d.w.Clone(),
		b:      append([]float64(nil), d.b...),
		gradW:  tensor.NewMatrix(d.out, d.in),
		gradB:  make([]float64, d.out),
		outBuf: make([]float64, d.out),
		dinBuf: make([]float64, d.in),
	}
	c.paramsV = [][]float64{c.w.Data, c.b}
	c.gradsV = [][]float64{c.gradW.Data, c.gradB}
	return c
}
