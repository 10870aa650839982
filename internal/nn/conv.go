package nn

import (
	"math"

	"repro/internal/cpu"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// useAVX2 selects the stride-1 Forward's and Backward's assembly bodies
// (conv_amd64.s); the Go loops are the body elsewhere and the tests'
// reference.
var useAVX2 = cpu.AVX2

// convTarget is the work (multiply-adds, padded taps counted) one chunk of
// the parallel convolution kernels should hold. Forward splits its output
// channels into chunks of about that much and goes to the worker pool only
// if that makes two or more; Backward takes its two-pass form from twice
// that. Both TinyConvNet layers (27.6k and 41.5k in all) are under one chunk
// and run inline; the Table-1 CIFAR layers (4.9M and 26.2M) make 16 each.
const convTarget = 1 << 16

// Conv2D is a 2-D convolution over channels-first C×H×W activations with
// zero padding and square stride. Kernels are stored as a flat buffer of
// shape outC×inC×kH×kW.
type Conv2D struct {
	inC, inH, inW  int
	outC, kH, kW   int
	stride, pad    int
	outH, outW     int
	rows, cols     [][2]int  // per kernel row / column: the outputs its tap reaches (tapOutputs)
	tiles          []fwdTile // stride 1: the output cells, four per tile of convTileAVX2
	kernT          []float64 // stride 1: kern transposed to [tap][outC], refreshed by each Forward
	kern           []float64 // outC*inC*kH*kW
	bias           []float64 // outC
	gradKern       []float64
	gradBias       []float64
	lastIn         []float64
	outBuf, dinBuf []float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D builds a convolution layer. Output spatial dims are
// (in + 2·pad − k)/stride + 1 per axis. It panics on a non-positive output
// size — a construction-time programming error, in line with package policy
// of panicking only on misuse.
func NewConv2D(inC, inH, inW, outC, kH, kW, stride, pad int, rng *tensor.RNG) *Conv2D {
	outH := (inH+2*pad-kH)/stride + 1
	outW := (inW+2*pad-kW)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic("nn: Conv2D output size is non-positive")
	}
	c := &Conv2D{
		inC: inC, inH: inH, inW: inW,
		outC: outC, kH: kH, kW: kW,
		stride: stride, pad: pad,
		outH: outH, outW: outW,
		rows:     tapOutputs(kH, inH, outH, stride, pad),
		cols:     tapOutputs(kW, inW, outW, stride, pad),
		kern:     make([]float64, outC*inC*kH*kW),
		bias:     make([]float64, outC),
		gradKern: make([]float64, outC*inC*kH*kW),
		gradBias: make([]float64, outC),
		outBuf:   make([]float64, outC*outH*outW),
		dinBuf:   make([]float64, inC*inH*inW),
	}
	if stride == 1 && outC >= convBlock {
		c.tiles = c.fwdTiles()
		c.kernT = make([]float64, len(c.kern))
	}
	fanIn := float64(inC * kH * kW)
	limit := math.Sqrt(6.0 / fanIn)
	for i := range c.kern {
		c.kern[i] = (2*rng.Float64() - 1) * limit
	}
	return c
}

// fwdTile is one call of convTileAVX2: four output cells (repeats allowed)
// whose windows keep the same taps. In bytes: x and out per cell, its first
// tap (ic = 0) in the input and its place in an output plane; k, that tap in
// kernT; the skips from a kernel row's last tap to the next row's first and
// from an input channel's last row to the next channel's first.
type fwdTile struct {
	x, out         [4]int
	k              int
	rows, cols     int // in-range kernel rows and columns; 0 when the window is all padding
	xRow, kRow     int
	xPlane, kPlane int
}

// fwdTiles groups a stride-1 layer's output cells by the taps their windows
// keep — by output row, the same kernel rows; by output column, the same
// kernel columns, so only the pad cells at each edge form classes of their
// own — and deals each class, row by row, into tiles of four.
func (c *Conv2D) fwdTiles() []fwdTile {
	var tiles []fwdTile
	for _, ys := range clipRuns(c.kH, c.inH, c.outH, c.pad) {
		for _, xs := range clipRuns(c.kW, c.inW, c.outW, c.pad) {
			kyLo, kxLo := ys.taps[0], xs.taps[0]
			rows, cols := max(0, ys.taps[1]-kyLo), max(0, xs.taps[1]-kxLo)
			t := fwdTile{
				k:    (kyLo*c.kW + kxLo) * c.outC * 8,
				rows: rows, cols: cols,
				xRow: (c.inW - cols) * 8, kRow: (c.kW - cols) * c.outC * 8,
				xPlane: (c.inH - rows) * c.inW * 8, kPlane: (c.kH - rows) * c.kW * c.outC * 8,
			}
			n := 0
			for oy := ys.outs[0]; oy < ys.outs[1]; oy++ {
				for ox := xs.outs[0]; ox < xs.outs[1]; ox++ {
					t.x[n] = ((oy-c.pad+kyLo)*c.inW + ox - c.pad + kxLo) * 8
					t.out[n] = (oy*c.outW + ox) * 8
					if n++; n == len(t.x) {
						tiles, n = append(tiles, t), 0
					}
				}
			}
			if n > 0 {
				for i := n; i < len(t.x); i++ {
					t.x[i], t.out[i] = t.x[0], t.out[0]
				}
				tiles = append(tiles, t)
			}
		}
	}
	return tiles
}

// clipRun is a run of outputs [outs[0], outs[1]) along one axis whose
// stride-1 windows all keep the taps [taps[0], taps[1]).
type clipRun struct{ outs, taps [2]int }

// clipRuns splits the out outputs of one axis into the runs of equal
// clipTaps: the pad outputs at either end one by one, the interior as one.
func clipRuns(k, n, out, pad int) []clipRun {
	var runs []clipRun
	for o := 0; o < out; o++ {
		lo, hi := clipTaps(o-pad, k, n)
		if last := len(runs) - 1; last >= 0 && runs[last].taps == [2]int{lo, hi} {
			runs[last].outs[1] = o + 1
			continue
		}
		runs = append(runs, clipRun{outs: [2]int{o, o + 1}, taps: [2]int{lo, hi}})
	}
	return runs
}

// tapOutputs returns, for each tap t of a k-wide window along one axis, the
// outputs [lo, hi) whose tap t lands inside the n-long input, i.e. those o
// with 0 ≤ o·stride − pad + t < n. The coordinate grows with o, so they are
// one contiguous range (empty when the tap only ever sees padding).
func tapOutputs(k, n, out, stride, pad int) [][2]int {
	r := make([][2]int, k)
	for t := range r {
		lo := 0
		for lo < out && lo*stride-pad+t < 0 {
			lo++
		}
		hi := lo
		for hi < out && hi*stride-pad+t < n {
			hi++
		}
		r[t] = [2]int{lo, hi}
	}
	return r
}

// clipTaps is the transpose of tapOutputs: the taps [lo, hi) of a k-wide
// window whose tap 0 sits at input coordinate i0 (o·stride − pad, negative
// inside the padding) that land inside an n-long axis; hi ≤ lo when the
// whole window is padding.
func clipTaps(i0, k, n int) (lo, hi int) {
	return max(0, -i0), min(k, n-i0)
}

// Forward computes the convolution. Output channels are independent, so the
// channel loop is chunked across the worker pool (each output cell written
// by exactly one chunk — identical results at any parallelism); small layers
// collapse to the inline serial path, which allocates nothing.
func (c *Conv2D) Forward(x []float64) []float64 {
	c.lastIn = x
	if useAVX2 && c.kernT != nil {
		c.transposeKern()
	}
	perOC := c.outH * c.outW * c.inC * c.kH * c.kW
	// Rounded up to whole blocks, so a chunk is not left to the one-channel loop.
	grain := (parallel.GrainFor(perOC, convTarget) + convBlock - 1) / convBlock * convBlock
	if grain >= c.outC || parallel.Workers() == 1 || parallel.Busy() {
		c.forwardChannels(x, 0, c.outC)
	} else {
		parallel.For(c.outC, grain, func(ocLo, ocHi int) { c.forwardChannels(x, ocLo, ocHi) })
	}
	return c.outBuf
}

// transposeKern refreshes kernT from kern, with the slices in locals: a
// store into kernT could alias a field.
func (c *Conv2D) transposeKern() {
	kernT, outC, taps := c.kernT, c.outC, c.inC*c.kH*c.kW
	for oc := 0; oc < outC; oc++ {
		col := kernT[oc:]
		for t, k := range c.kern[oc*taps : (oc+1)*taps] {
			col[t*outC] = k
		}
	}
}

// fwdPass is what the convTileAVX2 calls of one pass share: the input, and
// two blocks of convBlock output channels — kernT and bias at block 0's
// first lane, out at its first plane; block 1 next bytes further on in
// kernT and bias, outNext bytes in out. plane and step are the bytes
// between output planes and between the taps of kernT.
type fwdPass struct {
	x, k, bias, out *float64
	next, outNext   int
	plane, step     int
	inC             int
}

// forwardAVX2 computes output channels [ocLo, ocHi), at least convBlock of
// them, in passes of two blocks: lanes are output channels, and each cell
// adds its in-range taps to its bias in (ic, ky, kx) order, as
// refConvForward does. A block that would pass ocHi starts at ocHi −
// convBlock (lanes computed twice store the same bits); a pass short of a
// second block has next = 0.
func (c *Conv2D) forwardAVX2(x []float64, ocLo, ocHi int) {
	plane, last := c.outH*c.outW, ocHi-convBlock
	x = x[:c.inC*c.inH*c.inW] // the assembly reads without bounds checks
	p := fwdPass{x: &x[0], plane: plane * 8, step: c.outC * 8, inC: c.inC}
	for b := ocLo; b < ocHi; b += 2 * convBlock {
		s0, s1 := min(b, last), min(b+convBlock, last)
		p.k, p.bias, p.out = &c.kernT[s0], &c.bias[s0], &c.outBuf[s0*plane]
		p.next, p.outNext = (s1-s0)*8, (s1-s0)*plane*8
		for i := range c.tiles {
			convTileAVX2(&c.tiles[i], &p)
		}
	}
}

// convBlock is how many output channels the stride-1 forward kernels
// advance together: in the Go loop they read the same input row, so one load
// and one pass of loop overhead feed four accumulations; in the AVX2 one
// they are the four lanes of a vector.
const convBlock = 4

// forwardChannels computes output channels [ocLo, ocHi): with the AVX2
// kernel when Forward made kernT and there are convBlock of them, else
// convBlock at a time while that many are left (and the stride is 1), then
// one at a time.
func (c *Conv2D) forwardChannels(x []float64, ocLo, ocHi int) {
	if useAVX2 && c.kernT != nil && ocHi-ocLo >= convBlock {
		c.forwardAVX2(x, ocLo, ocHi)
		return
	}
	for oc := ocLo; oc < ocHi; {
		b := 1
		if c.stride == 1 && oc+convBlock <= ocHi {
			b = convBlock
		}
		c.forwardBlock(x, oc, b)
		oc += b
	}
}

// forwardBlock computes the b (1 or convBlock) output channels from oc on as
// row AXPYs: each plane starts at its bias, and each tap (ic, ky, kx) then
// adds k·(input row) to the stretch of every output row it reaches — rows[ky]
// × cols[kx], the outputs for which the tap is not padding, worked out once
// in NewConv2D — in a loop with no branch and no dependency between cells.
//
// Ordering argument (why every bit equals the cell-at-a-time sum this
// replaces): float addition is not associative, so what must be preserved is
// the sequence each single cell sees. The taps are visited in (ic, ky, kx)
// order with the cells innermost, so one cell still computes
// ((bias + t₁) + t₂) + … over its in-range taps in (ic, ky, kx) order, and a
// tap that falls in the padding is skipped, never added as k·0 (which would
// turn an infinite k into NaN and could flip a −0). Only the interleaving
// *between* cells — of one plane, or of the block's planes — changed, and
// cells share no arithmetic.
func (c *Conv2D) forwardBlock(x []float64, oc, b int) {
	// Geometry in locals: a store into out could alias a field, and the
	// compiler would reload each one per row.
	stride, pad, inW, outW, kW := c.stride, c.pad, c.inW, c.outW, c.kW
	plane, taps := c.outH*outW, c.inC*c.kH*kW
	out := c.outBuf[oc*plane : (oc+b)*plane]
	for j, bias := range c.bias[oc : oc+b] {
		for i := j * plane; i < (j+1)*plane; i++ {
			out[i] = bias
		}
	}
	for ic := 0; ic < c.inC; ic++ {
		for ky, oys := range c.rows {
			for kx, oxs := range c.cols {
				n := oxs[1] - oxs[0]
				if n <= 0 {
					continue
				}
				k := c.kern[oc*taps+(ic*c.kH+ky)*kW+kx:]
				k0 := k[0]
				var k1, k2, k3 float64
				if b == convBlock {
					k1, k2, k3 = k[taps], k[2*taps], k[3*taps]
				}
				oOff := oys[0]*outW + oxs[0]
				iOff := (ic*c.inH+oys[0]*stride-pad+ky)*inW + oxs[0]*stride - pad + kx
				for oy := oys[0]; oy < oys[1]; oy++ {
					o, in := out[oOff:], x[iOff:]
					oOff += outW
					iOff += stride * inW
					switch {
					case b == convBlock:
						o0, o1, o2, o3 := o[:n], o[plane:][:n], o[2*plane:][:n], o[3*plane:][:n]
						for i, v := range in[:n] {
							o0[i] += k0 * v
							o1[i] += k1 * v
							o2[i] += k2 * v
							o3[i] += k3 * v
						}
					case stride == 1:
						o := o[:n]
						for i, v := range in[:n] {
							o[i] += k0 * v
						}
					default:
						for i := range o[:n] {
							o[i] += k0 * in[i*stride]
						}
					}
				}
			}
		}
	}
}

// Backward accumulates kernel/bias gradients and returns dL/d(input).
func (c *Conv2D) Backward(dout []float64) []float64 { return c.backward(dout, c.dinBuf) }

// backwardParams is Backward with the input-gradient half of every kernel
// below left out.
func (c *Conv2D) backwardParams(dout []float64) { c.backward(dout, nil) }

// backward accumulates kernel/bias gradients and, unless din is nil, writes
// dL/d(input) to it.
//
// Two variants produce bit-identical results: the one-pass serial loop, and
// a two-pass parallel form — pass A owns the weight gradients (chunked over
// output channels, which partition gradKern and gradBias) and pass B owns
// the input gradient (chunked over input channels, which partition din).
// Each accumulated cell receives the same contributions in the same order in
// both variants, so the split is purely a scheduling choice.
func (c *Conv2D) backward(dout, din []float64) []float64 {
	perOC := c.outH * c.outW * c.inC * c.kH * c.kW
	if total := perOC * c.outC; total >= 2*convTarget && parallel.Workers() > 1 && !parallel.Busy() {
		return c.backwardTwoPass(dout, din, perOC)
	}
	return c.backwardOnePass(dout, din)
}

// backwardOnePass is the serial kernel: one sweep accumulating weight and
// input gradients together.
func (c *Conv2D) backwardOnePass(dout, din []float64) []float64 {
	for i := range din {
		din[i] = 0
	}
	for oc := 0; oc < c.outC; oc++ {
		c.backwardCells(dout, oc, 0, c.inC, c.gradKern, din)
	}
	return din
}

// backwardCells sweeps output channel oc's cells in (oy, ox) order and, for
// each with a non-zero gradient g, walks input channels [icLo, icHi) and the
// window's in-range taps (clipped once per cell, not tested per tap) in
// (ic, ky, kx) order, adding g·x to gradKern and g·kern to din. One of the
// two may be nil to leave that half to the other pass; gradBias goes with
// gradKern, summed in a register in the same order. At stride 1 on AVX2 one
// convCellAVX2 call walks a cell's window.
func (c *Conv2D) backwardCells(dout []float64, oc, icLo, icHi int, gradKern, din []float64) {
	x, vec := c.lastIn, useAVX2 && c.stride == 1
	var gb float64
	if gradKern != nil {
		gb = c.gradBias[oc]
	}
	for oy := 0; oy < c.outH; oy++ {
		iy0 := oy*c.stride - c.pad
		kyLo, kyHi := clipTaps(iy0, c.kH, c.inH)
		for ox, g := range dout[(oc*c.outH+oy)*c.outW:][:c.outW] {
			if g == 0 {
				continue
			}
			if gradKern != nil {
				gb += g
			}
			ix0 := ox*c.stride - c.pad
			kxLo, kxHi := clipTaps(ix0, c.kW, c.inW)
			n := kxHi - kxLo
			if n <= 0 {
				continue // the whole window is padding
			}
			if vec {
				if rows := kyHi - kyLo; rows > 0 {
					kRow := ((oc*c.inC+icLo)*c.kH+kyLo)*c.kW + kxLo
					inRow := (icLo*c.inH+iy0+kyLo)*c.inW + ix0 + kxLo
					var gk, ds *float64
					if gradKern != nil {
						gk = &gradKern[kRow]
					}
					if din != nil {
						ds = &din[inRow]
					}
					convCellAVX2(g, gk, ds, &x[inRow], &c.kern[kRow], n, rows, icHi-icLo,
						c.kW, (c.kH-rows)*c.kW, c.inW, (c.inH-rows)*c.inW)
				}
				continue
			}
			for ic := icLo; ic < icHi; ic++ {
				for ky := kyLo; ky < kyHi; ky++ {
					kRow := ((oc*c.inC+ic)*c.kH+ky)*c.kW + kxLo
					inRow := (ic*c.inH+iy0+ky)*c.inW + ix0 + kxLo
					xs, ks := x[inRow:][:n], c.kern[kRow:][:n]
					switch {
					case din == nil:
						gk := gradKern[kRow:][:n]
						for i, v := range xs {
							gk[i] += g * v
						}
					case gradKern == nil:
						ds := din[inRow:][:n]
						for i, k := range ks {
							ds[i] += g * k
						}
					default:
						gk, ds := gradKern[kRow:][:n], din[inRow:][:n]
						for i, v := range xs {
							gk[i] += g * v
							ds[i] += g * ks[i]
						}
					}
				}
			}
		}
	}
	if gradKern != nil {
		c.gradBias[oc] = gb
	}
}

// backwardTwoPass runs the weight-gradient and input-gradient sweeps as two
// parallel passes (just the first when din is nil). See backward for why it
// is bit-identical to the one-pass form.
func (c *Conv2D) backwardTwoPass(dout, din []float64, perOC int) []float64 {
	// Pass A: gradKern and gradBias, partitioned by output channel. Loop
	// order matches backwardOnePass (oy, ox, ic, ky, kx inside oc), so every
	// gradKern/gradBias cell accumulates its contributions in the same order.
	parallel.For(c.outC, parallel.GrainFor(perOC, convTarget), func(ocLo, ocHi int) {
		for oc := ocLo; oc < ocHi; oc++ {
			c.backwardCells(dout, oc, 0, c.inC, c.gradKern, nil)
		}
	})
	if din == nil {
		return nil
	}
	// Pass B: din, partitioned by input channel. For a fixed input cell the
	// contributions arrive ordered by (oc, oy, ox, ky, kx) — exactly the
	// order the one-pass sweep produces for that cell.
	perIC := c.outC * c.outH * c.outW * c.kH * c.kW
	parallel.For(c.inC, parallel.GrainFor(perIC, convTarget), func(icLo, icHi int) {
		for ic := icLo; ic < icHi; ic++ {
			inBase := ic * c.inH * c.inW
			for i := inBase; i < inBase+c.inH*c.inW; i++ {
				din[i] = 0
			}
			for oc := 0; oc < c.outC; oc++ {
				c.backwardCells(dout, oc, ic, ic+1, nil, din)
			}
		}
	})
	return din
}

// Params returns [kernels, bias].
func (c *Conv2D) Params() [][]float64 { return [][]float64{c.kern, c.bias} }

// Grads returns [dKernels, dBias].
func (c *Conv2D) Grads() [][]float64 { return [][]float64{c.gradKern, c.gradBias} }

// OutputSize returns outC·outH·outW.
func (c *Conv2D) OutputSize() int { return c.outC * c.outH * c.outW }

// Clone returns a deep copy with fresh scratch buffers.
func (c *Conv2D) Clone() Layer {
	cp := *c
	cp.kern = append([]float64(nil), c.kern...)
	cp.bias = append([]float64(nil), c.bias...)
	cp.gradKern = make([]float64, len(c.gradKern))
	cp.gradBias = make([]float64, len(c.gradBias))
	cp.outBuf = make([]float64, len(c.outBuf))
	cp.dinBuf = make([]float64, len(c.dinBuf))
	if c.kernT != nil {
		cp.kernT = make([]float64, len(c.kernT))
	}
	cp.lastIn = nil
	return &cp
}
