package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
)

// refReLU is the branch-on-the-sign ReLU the bit-pattern select replaced,
// moved here verbatim: the forward pass records v > 0 in a mask, the
// backward pass reads the mask. The tests hold ReLU to it bit for bit.
type refReLU struct{ mask []bool }

func (r *refReLU) forward(x, out []float64) {
	r.mask = make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		} else {
			out[i] = 0
			r.mask[i] = false
		}
	}
}

func (r *refReLU) backward(dout, din []float64) {
	for i, d := range dout {
		if r.mask[i] {
			din[i] = d
		} else {
			din[i] = 0
		}
	}
}

// requireExactBits is requireSameBits without its NaN allowance: ReLU copies
// bits, it does no arithmetic, so a NaN's sign and payload must survive.
func requireExactBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %#016x, reference %#016x", what, i, g, w)
		}
	}
}

// checkReLUMatchesReference runs x forward and dout backward through ReLU
// and the reference and requires identical bits from both passes.
func checkReLUMatchesReference(t *testing.T, x, dout []float64) {
	t.Helper()
	r := NewReLU(len(x))
	var ref refReLU
	wantOut, wantDin := make([]float64, len(x)), make([]float64, len(x))
	ref.forward(x, wantOut)
	ref.backward(dout, wantDin)
	requireExactBits(t, "out", r.Forward(x), wantOut)
	requireExactBits(t, "din", r.Backward(dout), wantDin)
}

// reluSpecials are the bit patterns on either side of every boundary the
// select tests: zero, the subnormal range, the largest finite value, the
// infinities, and NaNs of both signs, quiet and signalling, with odd payloads.
var reluSpecials = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // −0
	0x0000000000000001, // smallest subnormal
	0x8000000000000001,
	0x000fffffffffffff, // largest subnormal
	0x800fffffffffffff,
	0x0010000000000000, // smallest normal
	0x8010000000000000,
	0x3ff0000000000000, // ±1
	0xbff0000000000000,
	0x7fefffffffffffff, // ±MaxFloat64
	0xffefffffffffffff,
	0x7ff0000000000000, // ±Inf
	0xfff0000000000000,
	0x7ff0000000000001, // signalling NaNs, smallest payload
	0xfff0000000000001,
	0x7ff8000000000000, // the quiet NaN math.NaN returns, and its negative
	0xfff8000000000000,
	0x7ff8dead0000beef, // odd payloads
	0xfff4000000c0ffee,
	0x7fffffffffffffff, // every payload bit set
	0xffffffffffffffff,
}

// TestReLUMatchesReference pairs every special input with every special
// output gradient (so each payload is passed through by a positive input and
// stopped by a non-positive one), then runs random sign-mixed vectors.
func TestReLUMatchesReference(t *testing.T) {
	n := len(reluSpecials)
	x, dout := make([]float64, n*n), make([]float64, n*n)
	for i, xb := range reluSpecials {
		for j, db := range reluSpecials {
			x[i*n+j] = math.Float64frombits(xb)
			dout[i*n+j] = math.Float64frombits(db)
		}
	}
	checkReLUMatchesReference(t, x, dout)

	rng := tensor.NewRNG(2700)
	for _, size := range []int{1, 7, 384, 6 * 8 * 8} {
		checkReLUMatchesReference(t,
			sprinkle(rng, make([]float64, size), true), sprinkle(rng, make([]float64, size), true))
	}

	// Backward before any Forward sees an all-zero output: nothing passes.
	fresh := NewReLU(3)
	requireExactBits(t, "din of a fresh layer", fresh.Backward([]float64{1, math.NaN(), -2}), make([]float64, 3))
}

// FuzzReLU reads data as (input bits, gradient bits) pairs of little-endian
// uint64s, so the fuzzer mutates exponents, signs and payloads directly.
func FuzzReLU(f *testing.F) {
	seed := make([]byte, 0, 16*len(reluSpecials))
	for i, b := range reluSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, b)
		seed = binary.LittleEndian.AppendUint64(seed, reluSpecials[len(reluSpecials)-1-i])
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		x, dout := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			dout[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkReLUMatchesReference(t, x, dout)
	})
}

// fullBackward hides a layer's backwardParams (embedding the interface
// promotes Layer's methods only), so a Sequential that starts with it runs
// the full Backward on every layer, as every Sequential did before its first
// layer was spared the input gradient.
type fullBackward struct{ Layer }

func (f fullBackward) Clone() Layer { return fullBackward{f.Layer.Clone()} }

// TestBatchGradientMatchesFullBackward holds the gradient of a model whose
// first layer computes parameter gradients only to that of the same model
// running every layer's full Backward, bit for bit: at parallelism 1 (serial
// chunk fold, one-pass convolution) and 2 (replicas; CIFARNet's single-chunk
// batch runs conv1's two-pass kernel with pass B skipped).
func TestBatchGradientMatchesFullBackward(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(*tensor.RNG) *Sequential
		in, out int
		batch   int
	}{
		{"TinyConvNet", func(r *tensor.RNG) *Sequential { return NewTinyConvNet(r, 10) }, 3 * 8 * 8, 10, 10},
		{"CIFARNet", NewCIFARNet, 3 * 32 * 32, 10, 1},
		{"MLP_192_1024_10", func(r *tensor.RNG) *Sequential { return NewMLP(r, 192, 1024, 10) }, 192, 10, 6},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				withWorkers(t, workers)
				onEachSide(t, func(t *testing.T) {
					rng := tensor.NewRNG(2701)
					m := tc.build(rng)
					if _, ok := m.layers[0].(paramBackwarder); !ok {
						t.Fatalf("%T does not offer backwardParams: the test would compare Backward with itself", m.layers[0])
					}
					layers := m.Clone().layers
					layers[0] = fullBackward{layers[0]}
					ref := NewSequential(layers...)

					xs, labels := make([][]float64, tc.batch), make([]int, tc.batch)
					for i := range xs {
						xs[i] = rng.NormVec(make([]float64, tc.in), 0, 1)
						labels[i] = i % tc.out
					}
					wantLoss, want := BatchGradient(ref, xs, labels)
					gotLoss, got := BatchGradient(m, xs, labels)
					if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
						t.Fatalf("loss %v, full backward %v", gotLoss, wantLoss)
					}
					requireExactBits(t, "gradient", got, want)
				})
			})
		}
	}
}

// TestBatchGradientHashOnEverySide hashes (FNV-64a) the loss and gradient
// bits of BatchGradient over the harness CNN, the Table-1 CNN and the wide
// workloads' MLP, and requires one hash per model at parallelism 1 and 2 on
// the Go and the AVX2 bodies alike; -v prints them, so two trees can be
// compared by running the test on both.
func TestBatchGradientHashOnEverySide(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(*tensor.RNG) *Sequential
		in, out int
		batch   int
	}{
		{"TinyConvNet", func(r *tensor.RNG) *Sequential { return NewTinyConvNet(r, 10) }, 3 * 8 * 8, 10, 16},
		{"CIFARNet", NewCIFARNet, 3 * 32 * 32, 10, 2},
		{"MLP_192_1024_10", func(r *tensor.RNG) *Sequential { return NewMLP(r, 192, 1024, 10) }, 192, 10, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want uint64
			for _, workers := range []int{1, 2} {
				withWorkers(t, workers)
				for _, avx2 := range kernelSides() {
					restore := setAVX2(avx2)
					rng := tensor.NewRNG(2703)
					m := tc.build(rng)
					xs, labels := make([][]float64, tc.batch), make([]int, tc.batch)
					for i := range xs {
						xs[i] = rng.NormVec(make([]float64, tc.in), 0, 1)
						labels[i] = i % tc.out
					}
					loss, grad := BatchGradient(m, xs, labels)
					restore()
					h := fnv.New64a()
					b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(loss))
					for _, v := range grad {
						b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
					}
					h.Write(b)
					got := h.Sum64()
					t.Logf("workers=%d %s: %016x", workers, sideName(avx2), got)
					if want == 0 {
						want = got
					} else if got != want {
						t.Fatalf("workers=%d %s: hash %016x, first run %016x", workers, sideName(avx2), got, want)
					}
				}
			}
		})
	}
}

// TestBackwardThroughParameterFreeFirstLayer: a first layer that has no
// backwardParams is asked for its full Backward, so the layers behind it are
// reached all the same.
func TestBackwardThroughParameterFreeFirstLayer(t *testing.T) {
	rng := tensor.NewRNG(2702)
	relu, dense := NewReLU(5), NewDense(5, 3, rng)
	m := NewSequential(relu, dense)
	x := []float64{0.5, -1, 2, 0, 3}
	dout := []float64{1, -2, 0.25}

	m.ZeroGrad()
	m.Forward(x)
	m.Backward(dout)
	got := m.GradVector(1)
	gotDin := append([]float64(nil), relu.dinBuf...)

	// By hand, layer by layer.
	m.ZeroGrad()
	wantDin := relu.Backward(dense.Backward(dout))
	requireExactBits(t, "dense gradient", got, m.GradVector(1))
	requireExactBits(t, "ReLU input gradient", gotDin, wantDin)
	if wantDin[0] == 0 || wantDin[2] == 0 || wantDin[1] != 0 || wantDin[3] != 0 {
		t.Fatalf("input gradient %v does not follow the sign of %v", wantDin, x)
	}
}
