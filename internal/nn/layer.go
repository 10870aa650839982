// Package nn is a from-scratch neural-network substrate: dense and
// convolutional layers with explicit forward/backward passes, softmax
// cross-entropy loss, and a Sequential model whose parameters can be
// flattened into a single vector in R^d.
//
// It replaces the role TensorFlow's low-level APIs play in the paper: GuanYu
// only requires two operations from the learning framework — "estimate a
// stochastic gradient of the loss at parameters θ" and "apply an additive
// update to θ" — and this package provides exactly that contract
// (Model.SetParamVector, Model.Gradient).
//
// Conventions: activations are flat []float64 slices. Image tensors are
// stored channels-first, i.e. element (c, y, x) of a C×H×W tensor lives at
// index (c*H+y)*W + x.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a Sequential model.
//
// Forward consumes the input activation and returns the output activation.
// Backward consumes dL/d(output), accumulates dL/d(params) into the layer's
// gradient buffers, and returns dL/d(input). A layer must tolerate repeated
// Backward calls between ZeroGrad calls (gradients accumulate, enabling
// mini-batch averaging by the caller). Nobody reads the input gradient of a
// model's first layer, so there a paramBackwarder is asked for less.
type Layer interface {
	// Forward runs the layer on x and returns the output. The returned slice
	// is owned by the layer and valid until the next Forward call.
	Forward(x []float64) []float64

	// Backward propagates the output gradient and returns the input
	// gradient. Must be called after Forward with a matching activation.
	Backward(dout []float64) []float64

	// Params returns views of the layer's parameter buffers (may be empty).
	// Mutating the returned slices mutates the layer.
	Params() [][]float64

	// Grads returns views of the gradient buffers, parallel to Params.
	Grads() [][]float64

	// OutputSize returns the length of the activation Forward produces.
	OutputSize() int

	// Clone returns a deep copy of the layer (parameters included, scratch
	// state excluded). Workers lease clones of a model one gradient at a
	// time, so a layer may keep no state across gradients that the next
	// Forward, or ZeroGrad, does not overwrite.
	Clone() Layer
}

// Sequential chains layers into a model and provides the flattened-parameter
// view GuanYu operates on.
type Sequential struct {
	layers []Layer
	dim    int // total parameter count, cached
}

// NewSequential builds a model from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	m := &Sequential{layers: layers}
	for _, l := range layers {
		for _, p := range l.Params() {
			m.dim += len(p)
		}
	}
	return m
}

// ParamCount returns d, the dimension of the parameter space.
func (m *Sequential) ParamCount() int { return m.dim }

// Forward runs the full model on input x.
func (m *Sequential) Forward(x []float64) []float64 {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// paramBackwarder is the optional half of Backward a layer with parameters
// can offer: accumulate dL/d(params) exactly as Backward does and leave
// dL/d(input) uncomputed.
type paramBackwarder interface {
	backwardParams(dout []float64)
}

// Backward propagates dL/d(output) through all layers, accumulating
// parameter gradients. It returns nothing: the gradient of a training step
// is read from Grads, and dL/d(model input) is not computed when the first
// layer is a paramBackwarder.
func (m *Sequential) Backward(dout []float64) {
	for i := len(m.layers) - 1; i >= 0; i-- {
		l := m.layers[i]
		if pb, ok := l.(paramBackwarder); ok && i == 0 {
			pb.backwardParams(dout)
			return
		}
		dout = l.Backward(dout)
	}
}

// ZeroGrad clears every gradient buffer.
func (m *Sequential) ZeroGrad() {
	for _, l := range m.layers {
		for _, g := range l.Grads() {
			for i := range g {
				g[i] = 0
			}
		}
	}
}

// ParamVector copies all parameters into a single vector θ ∈ R^d. The order
// is deterministic (layer order, then buffer order).
func (m *Sequential) ParamVector() tensor.Vector {
	out := make(tensor.Vector, 0, m.dim)
	for _, l := range m.layers {
		for _, p := range l.Params() {
			out = append(out, p...)
		}
	}
	return out
}

// SetParamVector scatters θ back into the layer buffers. It returns an error
// if the dimension does not match the model.
func (m *Sequential) SetParamVector(theta tensor.Vector) error {
	if len(theta) != m.dim {
		return fmt.Errorf("nn: parameter vector has dimension %d, model needs %d",
			len(theta), m.dim)
	}
	off := 0
	for _, l := range m.layers {
		for _, p := range l.Params() {
			copy(p, theta[off:off+len(p)])
			off += len(p)
		}
	}
	return nil
}

// GradVector copies all accumulated gradients into a single vector, scaled by
// alpha (callers pass 1/batchSize to average per-example gradients). The
// vector comes from tensor.Get and is the caller's: a node loop hands it to
// tensor.Put after its last send, everyone else leaves it to the garbage
// collector.
func (m *Sequential) GradVector(alpha float64) tensor.Vector {
	out := tensor.Get(m.dim)
	m.GradVectorInto(out, alpha)
	return out
}

// GradVectorInto is the allocation-free form of GradVector: it copies the
// accumulated gradients into dst, scaled by alpha. dst must have the model's
// dimension (a programming error otherwise, so it panics in line with
// package policy).
func (m *Sequential) GradVectorInto(dst tensor.Vector, alpha float64) {
	if len(dst) != m.dim {
		panic(fmt.Sprintf("nn: gradient destination has dimension %d, model needs %d",
			len(dst), m.dim))
	}
	off := 0
	for _, l := range m.layers {
		for _, g := range l.Grads() {
			copy(dst[off:off+len(g)], g)
			off += len(g)
		}
	}
	if alpha != 1 {
		tensor.ScaleInPlace(dst, alpha)
	}
}

// AddGradVectorTo adds the accumulated gradients onto dst, coordinate by
// coordinate in GradVectorInto's order: dst[i] += g[i], the additions
// GradVectorInto(scratch, 1) followed by tensor.AddInPlace(dst, scratch)
// performs, without the scratch. dst must have the model's dimension.
func (m *Sequential) AddGradVectorTo(dst tensor.Vector) {
	if len(dst) != m.dim {
		panic(fmt.Sprintf("nn: gradient destination has dimension %d, model needs %d",
			len(dst), m.dim))
	}
	off := 0
	for _, l := range m.layers {
		for _, g := range l.Grads() {
			tensor.AddInPlace(dst[off:off+len(g)], g)
			off += len(g)
		}
	}
}

// Clone returns an independent deep copy of the model.
func (m *Sequential) Clone() *Sequential {
	layers := make([]Layer, len(m.layers))
	for i, l := range m.layers {
		layers[i] = l.Clone()
	}
	return NewSequential(layers...)
}

// Summary returns one line per layer: name, output size, parameter count.
// Used to regenerate Table 1 of the paper.
func (m *Sequential) Summary() []LayerInfo {
	infos := make([]LayerInfo, 0, len(m.layers))
	for _, l := range m.layers {
		var n int
		for _, p := range l.Params() {
			n += len(p)
		}
		infos = append(infos, LayerInfo{
			Name:       fmt.Sprintf("%T", l),
			OutputSize: l.OutputSize(),
			ParamCount: n,
		})
	}
	return infos
}

// LayerInfo describes one layer for model summaries.
type LayerInfo struct {
	Name       string
	OutputSize int
	ParamCount int
}
