package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The reference kernels below are the cell-at-a-time loops Conv2D and
// MaxPool2D ran before the row-AXPY / clipped-window rewrite, moved here
// verbatim (receiver fields read off the layer, results written to the
// caller's buffers). The tests hold the production kernels to them bit for
// bit: same bias start, same tap order per cell, same skipped taps.

func refConvForward(c *Conv2D, x, out []float64) {
	for oc := 0; oc < c.outC; oc++ {
		b := c.bias[oc]
		for oy := 0; oy < c.outH; oy++ {
			for ox := 0; ox < c.outW; ox++ {
				sum := b
				iy0 := oy*c.stride - c.pad
				ix0 := ox*c.stride - c.pad
				for ic := 0; ic < c.inC; ic++ {
					kBase := (oc*c.inC + ic) * c.kH * c.kW
					inBase := ic * c.inH * c.inW
					for ky := 0; ky < c.kH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= c.inH {
							continue
						}
						kRow := kBase + ky*c.kW
						inRow := inBase + iy*c.inW
						for kx := 0; kx < c.kW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= c.inW {
								continue
							}
							sum += c.kern[kRow+kx] * x[inRow+ix]
						}
					}
				}
				out[(oc*c.outH+oy)*c.outW+ox] = sum
			}
		}
	}
}

// refConvBackward is the old one-pass sweep: it accumulates into gradKern and
// gradBias and overwrites din.
func refConvBackward(c *Conv2D, x, dout, gradKern, gradBias, din []float64) {
	for i := range din {
		din[i] = 0
	}
	for oc := 0; oc < c.outC; oc++ {
		for oy := 0; oy < c.outH; oy++ {
			for ox := 0; ox < c.outW; ox++ {
				g := dout[(oc*c.outH+oy)*c.outW+ox]
				if g == 0 {
					continue
				}
				gradBias[oc] += g
				iy0 := oy*c.stride - c.pad
				ix0 := ox*c.stride - c.pad
				for ic := 0; ic < c.inC; ic++ {
					kBase := (oc*c.inC + ic) * c.kH * c.kW
					inBase := ic * c.inH * c.inW
					for ky := 0; ky < c.kH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= c.inH {
							continue
						}
						kRow := kBase + ky*c.kW
						inRow := inBase + iy*c.inW
						for kx := 0; kx < c.kW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= c.inW {
								continue
							}
							gradKern[kRow+kx] += g * x[inRow+ix]
							din[inRow+ix] += g * c.kern[kRow+kx]
						}
					}
				}
			}
		}
	}
}

func refPoolForward(p *MaxPool2D, x, out []float64, argmax []int) {
	for ch := 0; ch < p.c; ch++ {
		inBase := ch * p.inH * p.inW
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				iy0 := oy*p.stride - p.pad
				ix0 := ox*p.stride - p.pad
				for ky := 0; ky < p.k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= p.inH {
						continue
					}
					for kx := 0; kx < p.k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= p.inW {
							continue
						}
						idx := inBase + iy*p.inW + ix
						if x[idx] > best {
							best = x[idx]
							bestIdx = idx
						}
					}
				}
				o := (ch*p.outH+oy)*p.outW + ox
				out[o] = best
				argmax[o] = bestIdx
			}
		}
	}
}

// sprinkle fills v with standard normals, then overwrites about half the
// cells with exact zeros (a few of them −0) and, when special is set, a few
// percent with NaN and ±Inf: the values for which "skip the padded tap" and
// "add k·0" differ, and the g == 0 skip of the backward pass.
func sprinkle(rng *tensor.RNG, v []float64, special bool) []float64 {
	rng.NormVec(v, 0, 1)
	for i := range v {
		switch r := rng.Intn(100); {
		case r < 45:
			v[i] = 0
		case r < 50:
			v[i] = math.Copysign(0, -1)
		case special && r < 52:
			v[i] = math.NaN()
		case special && r < 54:
			v[i] = math.Inf(1)
		case special && r < 56:
			v[i] = math.Inf(-1)
		}
	}
	return v
}

// requireSameBits demands math.Float64bits equality, except that a NaN
// matches any NaN: when both operands of an x86 ADDSD are NaN the result
// carries the first operand's payload, and which operand comes first in
// `sum += k*x` and in `o[i] += k*v` is the register allocator's choice.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// convGeom is NewConv2D's argument list.
type convGeom struct{ inC, inH, inW, outC, kH, kW, stride, pad int }

func (g convGeom) String() string {
	return fmt.Sprintf("%dx%dx%d_to_%d_k%dx%d_s%d_p%d", g.inC, g.inH, g.inW, g.outC, g.kH, g.kW, g.stride, g.pad)
}

// checkConvMatchesReference runs Forward and two accumulating Backward calls
// — through the one-pass kernel, or through both passes of the two-pass one —
// on the Go loops or the AVX2 bodies, and requires out, gradKern, gradBias
// and din to equal the reference's bit for bit. With special set, gradKern
// and gradBias start at −0, which only an exact −0 keeps.
func checkConvMatchesReference(t *testing.T, g convGeom, seed uint64, special, twoPass, avx2 bool) {
	t.Helper()
	defer setAVX2(avx2)()
	side := sideName(avx2) + ": "
	rng := tensor.NewRNG(seed)
	c := NewConv2D(g.inC, g.inH, g.inW, g.outC, g.kH, g.kW, g.stride, g.pad, rng)
	sprinkle(rng, c.kern, special)
	sprinkle(rng, c.bias, special)
	x := sprinkle(rng, make([]float64, g.inC*g.inH*g.inW), special)

	wantOut := make([]float64, c.OutputSize())
	refConvForward(c, x, wantOut)
	requireSameBits(t, side+"out", c.Forward(x), wantOut)

	wantKern := make([]float64, len(c.kern))
	wantBias := make([]float64, len(c.bias))
	wantDin := make([]float64, len(x))
	if special {
		for _, v := range [][]float64{c.gradKern, c.gradBias, wantKern, wantBias} {
			for i := range v {
				v[i] = math.Copysign(0, -1)
			}
		}
	}
	for round := 0; round < 2; round++ {
		dout := sprinkle(rng, make([]float64, c.OutputSize()), special)
		refConvBackward(c, x, dout, wantKern, wantBias, wantDin)
		var din []float64
		if twoPass {
			din = c.backwardTwoPass(dout, c.dinBuf, c.outH*c.outW*c.inC*c.kH*c.kW)
		} else {
			din = c.backwardOnePass(dout, c.dinBuf)
		}
		requireSameBits(t, fmt.Sprintf("%sdin (backward %d)", side, round+1), din, wantDin)
	}
	requireSameBits(t, side+"gradKern", c.gradKern, wantKern)
	requireSameBits(t, side+"gradBias", c.gradBias, wantBias)
}

func TestConvMatchesReference(t *testing.T) {
	withWorkers(t, 4) // so the two-pass kernel's chunks really run apart
	for _, g := range []convGeom{
		{3, 8, 8, 6, 3, 3, 1, 1},     // TinyConvNet conv1
		{6, 4, 4, 12, 3, 3, 1, 1},    // TinyConvNet conv2
		{3, 32, 32, 64, 5, 5, 1, 2},  // CIFARNet conv1
		{64, 16, 16, 64, 5, 5, 1, 2}, // CIFARNet conv2
		{2, 9, 9, 3, 3, 3, 2, 1},     // stride 2
		{2, 11, 10, 3, 4, 3, 3, 2},   // stride 3
		{2, 6, 6, 3, 3, 3, 1, 0},     // no padding
		{1, 4, 4, 2, 3, 3, 1, 3},     // pad ≥ kernel: some taps see only padding
		{2, 2, 2, 2, 6, 5, 2, 2},     // kernel wider than input + pad
		{3, 5, 9, 2, 2, 4, 1, 1},     // non-square input and kernel
		{4, 5, 5, 3, 1, 1, 1, 0},     // 1×1 kernel
		{2, 7, 3, 2, 3, 3, 1, 0},     // outW = 1
		{2, 7, 3, 2, 3, 5, 2, 1},     // outW = 1, strided, padded
		{1, 1, 1, 1, 1, 1, 1, 0},     // a single cell
		{2, 6, 6, 2, 3, 3, 2, 4},     // strided and pad > kernel
		{8, 16, 16, 16, 3, 3, 1, 1},  // the two-pass gate's own size (parallel_test.go)
		{2, 12, 12, 40, 3, 3, 1, 1},  // more output channels than one chunk
		{40, 12, 12, 2, 3, 3, 1, 1},  // more input channels than one chunk
		{1, 40, 3, 1, 9, 3, 4, 4},    // tall input, stride 4
		{2, 5, 5, 2, 5, 5, 1, 0},     // kernel = input: one output cell
		{1, 8, 8, 1, 2, 2, 3, 0},     // stride > kernel: some inputs unread
		{2, 4, 4, 5, 3, 3, 1, 3},     // pad ≥ kernel with a block and a tail: cells of bias only
	} {
		for _, special := range []bool{false, true} {
			for _, twoPass := range []bool{false, true} {
				name := fmt.Sprintf("%v/special=%v/twoPass=%v", g, special, twoPass)
				t.Run(name, func(t *testing.T) {
					for _, avx2 := range kernelSides() {
						t.Run(sideName(avx2), func(t *testing.T) {
							checkConvMatchesReference(t, g, 2100, special, twoPass, avx2)
						})
					}
				})
			}
		}
	}
}

// FuzzConvMatchesReference draws the geometry from the fuzzer (each
// argument folded into a small legal range: up to 9 output channels, so whole
// blocks, a block plus a tail and single channels all occur) and the data
// from seed (odd seeds sprinkle NaN and ±Inf too), on every body.
func FuzzConvMatchesReference(f *testing.F) {
	// More seeds are committed under testdata/fuzz/FuzzConvMatchesReference.
	f.Add(uint64(1), uint8(2), uint8(7), uint8(7), uint8(5), uint8(2), uint8(2), uint8(0), uint8(1))  // 3×8×8 → 6, 3×3, pad 1
	f.Add(uint64(4), uint8(3), uint8(11), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0)) // 4×12×1 → 2, 1×1
	f.Fuzz(func(t *testing.T, seed uint64, inC, inH, inW, outC, kH, kW, stride, pad uint8) {
		g := convGeom{
			inC: 1 + int(inC)%4, inH: 1 + int(inH)%12, inW: 1 + int(inW)%12,
			outC: 1 + int(outC)%9, kH: 1 + int(kH)%6, kW: 1 + int(kW)%6,
			stride: 1 + int(stride)%4, pad: int(pad) % 7,
		}
		if g.inH+2*g.pad < g.kH || g.inW+2*g.pad < g.kW {
			t.Skip("kernel does not fit: NewConv2D panics by contract")
		}
		for _, avx2 := range kernelSides() {
			for _, twoPass := range []bool{false, true} {
				checkConvMatchesReference(t, g, seed, seed%2 == 1, twoPass, avx2)
			}
		}
	})
}

// TestConvChannelCounts covers channel counts around the AVX2 forward's
// four-channel blocks (a block that overlaps its neighbour, a pass of one
// block, fewer channels than a block) and kernel widths around the backward
// kernel's four-column vectors (1 and 3 columns short of one, 5 wider).
func TestConvChannelCounts(t *testing.T) {
	counts := []int{1, 3, 5, 6, 7, 12}
	for _, inC := range counts {
		for _, outC := range counts {
			for _, kW := range []int{1, 3, 5} {
				g := convGeom{inC, 5, 7, outC, 3, kW, 1, kW / 2}
				t.Run(g.String(), func(t *testing.T) {
					for _, avx2 := range kernelSides() {
						checkConvMatchesReference(t, g, uint64(2103+kW), true, false, avx2)
					}
				})
			}
		}
	}
}

// TestConvBackwardSkipsZeroGradients: a cell whose gradient is ±0 adds
// nothing, not 0·NaN, even when every input and some weights are NaN or
// ±Inf — only the one non-zero cell's window may move.
func TestConvBackwardSkipsZeroGradients(t *testing.T) {
	onEachSide(t, func(t *testing.T) {
		rng := tensor.NewRNG(2104)
		c := NewConv2D(3, 6, 6, 5, 3, 3, 1, 1, rng)
		sprinkle(rng, c.kern, true)
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		x := make([]float64, 3*6*6)
		for i := range x {
			x[i] = specials[i%len(specials)]
		}
		c.Forward(x)
		dout := make([]float64, c.OutputSize())
		for i := range dout {
			dout[i] = math.Copysign(0, float64(i%2)-0.5)
		}
		const oc, oy, ox = 2, 3, 4
		dout[(oc*c.outH+oy)*c.outW+ox] = 1.5

		wantKern, wantBias, wantDin := make([]float64, len(c.kern)), make([]float64, len(c.bias)), make([]float64, len(x))
		refConvBackward(c, x, dout, wantKern, wantBias, wantDin)
		din := c.Backward(dout)
		requireSameBits(t, "gradKern", c.gradKern, wantKern)
		requireSameBits(t, "gradBias", c.gradBias, wantBias)
		requireSameBits(t, "din", din, wantDin)
		taps := c.inC * c.kH * c.kW
		for i, v := range c.gradKern {
			if i/taps != oc && math.Float64bits(v) != 0 {
				t.Fatalf("gradKern[%d] of channel %d = %v: a zero-gradient cell was not skipped", i, i/taps, v)
			}
		}
		for i, v := range din {
			iy, ix := i/c.inW%c.inH, i%c.inW
			if (iy < oy-1 || iy > oy+1 || ix < ox-1 || ix > ox+1) && math.Float64bits(v) != 0 {
				t.Fatalf("din[%d] (row %d, column %d) = %v, outside the one window", i, iy, ix, v)
			}
		}
	})
}

// TestConvStaysInsideItsBuffers gives the layer buffers that end exactly
// where its geometry does, each followed by a guard of signalling-NaN bit
// patterns, with windows reaching the last row and column of the input: the
// kernels must leave every guard as it was (nothing written past a buffer)
// and match the reference (nothing read past one changed a result).
func TestConvStaysInsideItsBuffers(t *testing.T) {
	const guardBits = 0x7ff4000000c0ffee
	guarded := func(src []float64) []float64 {
		v := make([]float64, len(src)+8)
		for i := copy(v, src); i < len(v); i++ {
			v[i] = math.Float64frombits(guardBits)
		}
		return v[:len(src):len(src)]
	}
	checkGuard := func(t *testing.T, what string, v []float64) {
		t.Helper()
		for i, g := range v[len(v):cap(v)] {
			if math.Float64bits(g) != guardBits {
				t.Fatalf("%s: guard %d past the end is %#x", what, i, math.Float64bits(g))
			}
		}
	}
	for _, g := range []convGeom{
		{3, 8, 8, 6, 3, 3, 1, 1}, {6, 4, 4, 12, 3, 3, 1, 1}, {2, 6, 7, 5, 3, 5, 1, 0}, {3, 5, 5, 7, 1, 1, 1, 0}, {1, 4, 9, 4, 2, 5, 1, 2},
	} {
		t.Run(g.String(), func(t *testing.T) {
			onEachSide(t, func(t *testing.T) {
				rng := tensor.NewRNG(2105)
				c := NewConv2D(g.inC, g.inH, g.inW, g.outC, g.kH, g.kW, g.stride, g.pad, rng)
				c.kern, c.bias = guarded(sprinkle(rng, c.kern, true)), guarded(sprinkle(rng, c.bias, true))
				c.gradKern, c.gradBias = guarded(c.gradKern), guarded(c.gradBias)
				c.outBuf, c.dinBuf = guarded(c.outBuf), guarded(c.dinBuf)
				if c.kernT != nil {
					c.kernT = guarded(c.kernT)
				}
				x := guarded(sprinkle(rng, make([]float64, g.inC*g.inH*g.inW), true))
				dout := sprinkle(rng, make([]float64, c.OutputSize()), true)

				wantOut := make([]float64, c.OutputSize())
				refConvForward(c, x, wantOut)
				wantKern, wantBias, wantDin := make([]float64, len(c.kern)), make([]float64, len(c.bias)), make([]float64, len(x))
				refConvBackward(c, x, dout, wantKern, wantBias, wantDin)
				requireSameBits(t, "out", c.Forward(x), wantOut)
				requireSameBits(t, "din", c.Backward(dout), wantDin)
				requireSameBits(t, "gradKern", c.gradKern, wantKern)
				requireSameBits(t, "gradBias", c.gradBias, wantBias)
				for _, b := range []struct {
					what string
					v    []float64
				}{{"x", x}, {"kern", c.kern}, {"bias", c.bias}, {"kernT", c.kernT}, {"out", c.outBuf}, {"din", c.dinBuf}, {"gradKern", c.gradKern}, {"gradBias", c.gradBias}} {
					checkGuard(t, b.what, b.v)
				}
			})
		})
	}
}

// TestConvSteadyStateAllocatesNothing: at the harness shapes Forward and
// Backward run inline on the layer's own buffers, on every body and with or
// without a worker pool.
func TestConvSteadyStateAllocatesNothing(t *testing.T) {
	for _, g := range []convGeom{{3, 8, 8, 6, 3, 3, 1, 1}, {6, 4, 4, 12, 3, 3, 1, 1}} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/workers=%d", g, workers), func(t *testing.T) {
				withWorkers(t, workers)
				onEachSide(t, func(t *testing.T) {
					rng := tensor.NewRNG(2106)
					c := NewConv2D(g.inC, g.inH, g.inW, g.outC, g.kH, g.kW, g.stride, g.pad, rng)
					x := rng.NormVec(make([]float64, g.inC*g.inH*g.inW), 0, 1)
					dout := sprinkle(rng, make([]float64, c.OutputSize()), false)
					if n := testing.AllocsPerRun(50, func() { c.Forward(x) }); n != 0 {
						t.Fatalf("Forward: %v allocations a call", n)
					}
					if n := testing.AllocsPerRun(50, func() { c.Backward(dout) }); n != 0 {
						t.Fatalf("Backward: %v allocations a call", n)
					}
				})
			})
		}
	}
}

// TestMaxPoolMatchesReference draws inputs from a handful of values so most
// windows hold ties — the first maximum in (ky, kx) order must win, −0 must
// not beat +0 — plus NaN (never wins) and windows made only of padding.
func TestMaxPoolMatchesReference(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, 1, -1, 2, math.NaN(), math.Inf(-1), math.Inf(1)}
	for _, g := range []struct{ c, inH, inW, k, stride, pad int }{
		{6, 8, 8, 2, 2, 0},    // TinyConvNet pool1
		{12, 4, 4, 2, 2, 0},   // TinyConvNet pool2
		{64, 32, 32, 3, 2, 1}, // CIFARNet pool1
		{64, 16, 16, 3, 2, 1}, // CIFARNet pool2
		{2, 7, 5, 3, 1, 1},    // overlapping windows, non-square
		{2, 5, 9, 2, 3, 0},    // stride > window
		{1, 3, 3, 2, 1, 2},    // pad ≥ window: corner windows are all padding
		{1, 1, 1, 1, 1, 0},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d_k%d_s%d_p%d", g.c, g.inH, g.inW, g.k, g.stride, g.pad), func(t *testing.T) {
			rng := tensor.NewRNG(2101)
			p := NewMaxPool2D(g.c, g.inH, g.inW, g.k, g.stride, g.pad)
			x := make([]float64, g.c*g.inH*g.inW)
			for i := range x {
				x[i] = values[rng.Intn(len(values))]
			}
			wantOut := make([]float64, p.OutputSize())
			wantArg := make([]int, p.OutputSize())
			refPoolForward(p, x, wantOut, wantArg)
			requireSameBits(t, "out", p.Forward(x), wantOut)
			for o, want := range wantArg {
				if p.argmax[o] != want {
					t.Fatalf("argmax[%d] = %d, reference %d", o, p.argmax[o], want)
				}
			}
		})
	}
}

// TestTapRangesAreTransposes pins the two clipping helpers against the
// per-tap bounds test they replace: tapOutputs (forward) and clipTaps
// (backward, pooling) must both describe exactly the in-range (output, tap)
// pairs.
func TestTapRangesAreTransposes(t *testing.T) {
	for _, g := range []struct{ k, n, stride, pad int }{
		{3, 8, 1, 1}, {5, 32, 1, 2}, {3, 6, 2, 0}, {4, 11, 3, 2}, {3, 4, 1, 3}, {6, 2, 2, 2}, {1, 5, 1, 0}, {2, 8, 3, 1},
	} {
		out := (g.n+2*g.pad-g.k)/g.stride + 1
		byTap := tapOutputs(g.k, g.n, out, g.stride, g.pad)
		for o := 0; o < out; o++ {
			lo, hi := clipTaps(o*g.stride-g.pad, g.k, g.n)
			for tap := 0; tap < g.k; tap++ {
				i := o*g.stride - g.pad + tap
				want := i >= 0 && i < g.n
				if got := tap >= lo && tap < hi; got != want {
					t.Fatalf("%+v: clipTaps says o=%d tap=%d in range: %v, want %v", g, o, tap, got, want)
				}
				if got := o >= byTap[tap][0] && o < byTap[tap][1]; got != want {
					t.Fatalf("%+v: tapOutputs says o=%d tap=%d in range: %v, want %v", g, o, tap, got, want)
				}
			}
		}
	}
}
