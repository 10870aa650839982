package nn

import "math"

// MaxPool2D is a max-pooling layer over channels-first C×H×W activations
// with zero-free padding: padded positions are treated as −∞ and can never
// win the max, matching standard framework semantics.
type MaxPool2D struct {
	c, inH, inW int
	k, stride   int
	pad         int
	outH, outW  int
	argmax      []int // index into the input for each output element
	outBuf      []float64
	dinBuf      []float64
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D builds a pooling layer with a k×k window.
func NewMaxPool2D(c, inH, inW, k, stride, pad int) *MaxPool2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic("nn: MaxPool2D output size is non-positive")
	}
	return &MaxPool2D{
		c: c, inH: inH, inW: inW,
		k: k, stride: stride, pad: pad,
		outH: outH, outW: outW,
		argmax: make([]int, c*outH*outW),
		outBuf: make([]float64, c*outH*outW),
		dinBuf: make([]float64, c*inH*inW),
	}
}

// Forward computes the window maxima and records their positions: the
// in-range part of each window (clipTaps) scanned in (ky, kx) order, the
// first maximum winning ties.
func (p *MaxPool2D) Forward(x []float64) []float64 {
	for ch := 0; ch < p.c; ch++ {
		inBase := ch * p.inH * p.inW
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				iy0 := oy*p.stride - p.pad
				ix0 := ox*p.stride - p.pad
				kyLo, kyHi := clipTaps(iy0, p.k, p.inH)
				kxLo, kxHi := clipTaps(ix0, p.k, p.inW)
				for ky := kyLo; ky < kyHi; ky++ {
					row := inBase + (iy0+ky)*p.inW + ix0
					for idx := row + kxLo; idx < row+kxHi; idx++ {
						if x[idx] > best {
							best = x[idx]
							bestIdx = idx
						}
					}
				}
				o := (ch*p.outH+oy)*p.outW + ox
				p.outBuf[o] = best
				p.argmax[o] = bestIdx
			}
		}
	}
	return p.outBuf
}

// Backward routes each output gradient to the input position that won the
// max in the forward pass.
func (p *MaxPool2D) Backward(dout []float64) []float64 {
	for i := range p.dinBuf {
		p.dinBuf[i] = 0
	}
	for o, g := range dout {
		if idx := p.argmax[o]; idx >= 0 {
			p.dinBuf[idx] += g
		}
	}
	return p.dinBuf
}

// Params returns no parameters (pooling is parameter-free).
func (p *MaxPool2D) Params() [][]float64 { return nil }

// Grads returns no gradients.
func (p *MaxPool2D) Grads() [][]float64 { return nil }

// OutputSize returns c·outH·outW.
func (p *MaxPool2D) OutputSize() int { return p.c * p.outH * p.outW }

// Clone returns a fresh pooling layer of the same geometry.
func (p *MaxPool2D) Clone() Layer {
	return NewMaxPool2D(p.c, p.inH, p.inW, p.k, p.stride, p.pad)
}
