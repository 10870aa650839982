package tensor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cpu"
)

// useAVX2 selects IsFinite's assembly body (vector_amd64.s), which scans at
// most avx2Span coordinates a call, as a goroutine cannot be preempted in
// one; the Go loop is the body elsewhere and the tests' reference.
var useAVX2 = cpu.AVX2

const avx2Span = 4096

// Vector is a dense slice of float64. All model parameters, gradients and
// aggregation-rule inputs in this repository are Vectors: GuanYu treats the
// model as a single point in R^d, and every kernel below operates on that
// representation.
type Vector = []float64

// Zeros returns a new zero vector of dimension d.
func Zeros(d int) Vector { return make(Vector, d) }

// Clone returns a copy of v. Aggregation rules clone at boundaries so callers
// can mutate their inputs afterwards (slices share backing arrays otherwise).
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CloneAll deep-copies a set of vectors.
func CloneAll(vs []Vector) []Vector {
	out := make([]Vector, len(vs))
	for i, v := range vs {
		out[i] = Clone(v)
	}
	return out
}

// AddInPlace computes dst += src. Panics on dimension mismatch (programming
// error: all vectors in one deployment share dimension d).
func AddInPlace(dst, src Vector) {
	assertSameDim(len(dst), len(src))
	for i := range dst {
		dst[i] += src[i]
	}
}

// SubInPlace computes dst -= src.
func SubInPlace(dst, src Vector) {
	assertSameDim(len(dst), len(src))
	for i := range dst {
		dst[i] -= src[i]
	}
}

// Sub returns a - b as a new vector.
func Sub(a, b Vector) Vector {
	assertSameDim(len(a), len(b))
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add returns a + b as a new vector.
func Add(a, b Vector) Vector {
	assertSameDim(len(a), len(b))
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// ScaleInPlace computes v *= alpha.
func ScaleInPlace(v Vector, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Scale returns alpha * v as a new vector.
func Scale(v Vector, alpha float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = alpha * v[i]
	}
	return out
}

// AXPY computes dst += alpha * x (the BLAS primitive at the heart of the SGD
// update θ ← θ − η·g).
func AXPY(dst Vector, alpha float64, x Vector) {
	assertSameDim(len(dst), len(x))
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// Dot returns the inner product <a, b>.
func Dot(a, b Vector) float64 {
	assertSameDim(len(a), len(b))
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂.
func Norm2(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SquaredDistance returns ‖a − b‖₂² without allocating. This is the inner
// loop of the Krum score computation, so it is kept allocation-free.
func SquaredDistance(a, b Vector) float64 {
	assertSameDim(len(a), len(b))
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Distance returns ‖a − b‖₂.
func Distance(a, b Vector) float64 { return math.Sqrt(SquaredDistance(a, b)) }

// CosineSimilarity returns <a,b> / (‖a‖‖b‖), or 0 when either vector is
// (numerically) zero. Used by the Table-2 alignment probe.
func CosineSimilarity(a, b Vector) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Mean returns the arithmetic mean of the input vectors. Panics if the set is
// empty or dimensions disagree.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("tensor: Mean of empty set")
	}
	out := Clone(vs[0])
	for _, v := range vs[1:] {
		AddInPlace(out, v)
	}
	ScaleInPlace(out, 1/float64(len(vs)))
	return out
}

// MaxPairwiseDistance returns max over (i,j) of ‖vs[i] − vs[j]‖. This is the
// drift diagnostic from the contraction proof (Section 9.3.1 of the paper).
func MaxPairwiseDistance(vs []Vector) float64 {
	var maxD float64
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if d := SquaredDistance(vs[i], vs[j]); d > maxD {
				maxD = d
			}
		}
	}
	return math.Sqrt(maxD)
}

// MedianScalar returns the median of xs (mean of the two central order
// statistics for even length). xs is not modified.
func MedianScalar(xs []float64) float64 {
	if len(xs) == 0 {
		panic("tensor: median of empty slice")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	// Halve before adding so the midpoint cannot overflow for extreme values.
	return tmp[n/2-1]/2 + tmp[n/2]/2
}

// IsFinite reports whether every coordinate of v is finite (no NaN/Inf).
// Correct nodes use it to sanitise values received from the network: a
// Byzantine node may send NaNs to poison downstream arithmetic.
//
// NaN and ±Inf are exactly the values whose exponent bits are all set: the
// AVX2 body branches once per 16 coordinates; the Go loop, on the rest,
// once per eight, where some exponent + 1<<52 carries into bit 63.
func IsFinite(v Vector) bool {
	const expMask = 0x7ff << 52
	i := 0
	for useAVX2 && len(v)-i >= 16 {
		n := min(len(v)-i, avx2Span) &^ 15
		if !isFiniteAVX2(v[i : i+n]) {
			return false
		}
		i += n
	}
	for ; i+8 <= len(v); i += 8 {
		b := v[i : i+8 : i+8]
		carry := (math.Float64bits(b[0])&expMask + 1<<52) | (math.Float64bits(b[1])&expMask + 1<<52) |
			(math.Float64bits(b[2])&expMask + 1<<52) | (math.Float64bits(b[3])&expMask + 1<<52) |
			(math.Float64bits(b[4])&expMask + 1<<52) | (math.Float64bits(b[5])&expMask + 1<<52) |
			(math.Float64bits(b[6])&expMask + 1<<52) | (math.Float64bits(b[7])&expMask + 1<<52)
		if carry>>63 != 0 {
			return false
		}
	}
	for _, x := range v[i:] {
		if math.Float64bits(x)&expMask == expMask {
			return false
		}
	}
	return true
}

func assertSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: dimension mismatch %d vs %d", a, b))
	}
}
