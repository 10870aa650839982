package nn

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// NewMLP builds a multi-layer perceptron with ReLU activations between the
// given layer sizes, e.g. NewMLP(rng, 2, 16, 16, 3) for a 2-feature,
// 3-class classifier. Used for the blob/spiral workloads.
func NewMLP(rng *tensor.RNG, sizes ...int) *Sequential {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	layers := make([]Layer, 0, 2*len(sizes)-3)
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewDense(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			layers = append(layers, NewReLU(sizes[i+1]))
		}
	}
	return NewSequential(layers...)
}

// TinyConvNet describes the scaled-down CNN used by the experiment harness
// (sized so a full convergence run fits on a single-CPU CI machine). Input is
// an 8×8×3 channels-first image, output is numClasses logits.
func NewTinyConvNet(rng *tensor.RNG, numClasses int) *Sequential {
	conv1 := NewConv2D(3, 8, 8, 6, 3, 3, 1, 1, rng)  // → 6×8×8
	pool1 := NewMaxPool2D(6, 8, 8, 2, 2, 0)          // → 6×4×4
	conv2 := NewConv2D(6, 4, 4, 12, 3, 3, 1, 1, rng) // → 12×4×4
	pool2 := NewMaxPool2D(12, 4, 4, 2, 2, 0)         // → 12×2×2
	return NewSequential(
		conv1, NewReLU(conv1.OutputSize()), pool1,
		conv2, NewReLU(conv2.OutputSize()), pool2,
		NewDense(48, 32, rng), NewReLU(32),
		NewDense(32, numClasses, rng),
	)
}

// NewCIFARNet builds the exact architecture of Table 1 in the paper: a
// 32×32×3 input, two 5×5×64 convolutions each followed by 3×3 stride-2 max
// pooling, then fully-connected layers of 384, 192 and 10 units — about
// 1.75 M parameters.
func NewCIFARNet(rng *tensor.RNG) *Sequential {
	conv1 := NewConv2D(3, 32, 32, 64, 5, 5, 1, 2, rng)  // SAME → 64×32×32
	pool1 := NewMaxPool2D(64, 32, 32, 3, 2, 1)          // → 64×16×16
	conv2 := NewConv2D(64, 16, 16, 64, 5, 5, 1, 2, rng) // SAME → 64×16×16
	pool2 := NewMaxPool2D(64, 16, 16, 3, 2, 1)          // → 64×8×8
	return NewSequential(
		conv1, NewReLU(conv1.OutputSize()), pool1,
		conv2, NewReLU(conv2.OutputSize()), pool2,
		NewDense(64*8*8, 384, rng), NewReLU(384),
		NewDense(384, 192, rng), NewReLU(192),
		NewDense(192, 10, rng),
	)
}

// gradChunk is the fixed example-chunk size of BatchGradient. Chunk
// boundaries depend only on the batch size — never on the worker count — so
// the chunked path returns bit-identical gradients at any parallelism.
const gradChunk = 4

// accChunk is the example-chunk size of Accuracy (pure counting, so any
// decomposition is exact; the grain only bounds dispatch overhead).
const accChunk = 64

// BatchGradient runs forward/backward over a mini-batch and returns the mean
// loss and the mean gradient vector ∇̂L(θ). This is the worker-side gradient
// estimation primitive of the protocol — and the hottest loop of a worker —
// so batches larger than gradChunk are split into fixed example chunks that
// run on the worker pool, each on its own model replica with its own
// gradient accumulators.
//
// Determinism: the chunk list is derived from len(xs) alone, every chunk
// accumulates its examples in order on identical parameters, and the chunk
// gradients are folded in chunk order. The result is therefore bit-identical
// whether the chunks run on one goroutine or many. Batches of at most
// gradChunk examples take the single-chunk path, which is the classic serial
// accumulate-in-model loop.
func BatchGradient(m *Sequential, xs [][]float64, labels []int) (float64, tensor.Vector) {
	if len(xs) == 0 || len(xs) != len(labels) {
		panic("nn: BatchGradient needs a non-empty, aligned batch")
	}
	n := len(xs)
	chunks := parallel.ChunkCount(n, gradChunk)
	inv := 1 / float64(n)
	if chunks == 1 {
		m.ZeroGrad()
		var total float64
		for i, x := range xs {
			out := m.Forward(x)
			loss, dout := SoftmaxCrossEntropy(out, labels[i])
			total += loss
			m.Backward(dout)
		}
		return total * inv, m.GradVector(inv)
	}

	// chunkLoss runs chunk c's examples on mw (gradients accumulate in mw's
	// buffers, zeroed first) and returns the chunk's loss sum.
	chunkLoss := func(mw *Sequential, c int) float64 {
		eLo, eHi := c*gradChunk, min((c+1)*gradChunk, n)
		mw.ZeroGrad()
		var sum float64
		for e := eLo; e < eHi; e++ {
			out := mw.Forward(xs[e])
			loss, dout := SoftmaxCrossEntropy(out, labels[e])
			sum += loss
			mw.Backward(dout)
		}
		return sum
	}

	if parallel.Workers() == 1 || parallel.Busy() {
		// Serial execution of the same chunk list, folded incrementally in
		// chunk order: identical values to the parallel path (each chunk is
		// computed from zeroed buffers and folded in the same order) with
		// one vector instead of one per chunk, and no replicas.
		total := chunkLoss(m, 0)
		grad := m.GradVector(1)
		for c := 1; c < chunks; c++ {
			total += chunkLoss(m, c)
			m.AddGradVectorTo(grad)
		}
		tensor.ScaleInPlace(grad, inv)
		return total * inv, grad
	}

	// Replicas are cloned up front: worker slot 0 reuses m, the others get
	// deep copies. Cloning inside the parallel region would race with slot
	// 0 already mutating m's gradient buffers. Replicas and chunk gradients
	// are deliberately per-call — the models this harness trains are a few
	// thousand parameters, where a clone is ~tens of µs against a chunk's
	// forward/backward work; caching replicas across calls would trade that
	// for cross-call mutable state on Sequential.
	replicas := make([]*Sequential, min(parallel.Workers(), chunks))
	replicas[0] = m
	for w := 1; w < len(replicas); w++ {
		replicas[w] = m.Clone()
	}
	losses := make([]float64, chunks)
	parts := make([]tensor.Vector, chunks)
	parallel.ForWorker(chunks, 1, len(replicas), func(w, lo, hi int) {
		for c := lo; c < hi; c++ {
			losses[c] = chunkLoss(replicas[w], c)
			parts[c] = replicas[w].GradVector(1)
		}
	})

	// Ordered reduction: fold chunk gradients and losses in chunk order.
	grad := parts[0]
	for c := 1; c < chunks; c++ {
		tensor.AddInPlace(grad, parts[c])
		tensor.Put(parts[c])
	}
	tensor.ScaleInPlace(grad, inv)
	var total float64
	for _, l := range losses {
		total += l
	}
	return total * inv, grad
}

// Accuracy returns top-1 accuracy of the model over the given examples.
// Large evaluation sets are counted in parallel example chunks, each on its
// own model replica; correctness counts are integers, so the result is exact
// at any parallelism.
func Accuracy(m *Sequential, xs [][]float64, labels []int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	chunks := parallel.ChunkCount(n, accChunk)
	if chunks == 1 || parallel.Workers() == 1 || parallel.Busy() {
		correct := 0
		for i, x := range xs {
			if Argmax(m.Forward(x)) == labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(n)
	}
	replicas := make([]*Sequential, min(parallel.Workers(), chunks))
	replicas[0] = m
	for w := 1; w < len(replicas); w++ {
		replicas[w] = m.Clone()
	}
	counts := make([]int, chunks)
	parallel.ForWorker(chunks, 1, len(replicas), func(w, lo, hi int) {
		mw := replicas[w]
		for c := lo; c < hi; c++ {
			correct := 0
			for e := c * accChunk; e < n && e < (c+1)*accChunk; e++ {
				if Argmax(mw.Forward(xs[e])) == labels[e] {
					correct++
				}
			}
			counts[c] = correct
		}
	})
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n)
}
