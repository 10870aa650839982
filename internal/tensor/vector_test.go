package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestZerosAndClone(t *testing.T) {
	v := Zeros(5)
	if len(v) != 5 {
		t.Fatalf("Zeros(5) has length %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("Zeros(5)[%d] = %v, want 0", i, x)
		}
	}
	v[0] = 3
	c := Clone(v)
	c[0] = 7
	if v[0] != 3 {
		t.Fatalf("Clone aliases input: v[0] = %v", v[0])
	}
}

func TestCloneAllIndependence(t *testing.T) {
	vs := []Vector{{1, 2}, {3, 4}}
	cs := CloneAll(vs)
	cs[0][0] = 99
	if vs[0][0] != 1 {
		t.Fatal("CloneAll aliases inputs")
	}
}

func TestAddSubScale(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}

	sum := Add(a, b)
	want := Vector{5, 7, 9}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("Add = %v, want %v", sum, want)
		}
	}

	diff := Sub(b, a)
	for i := range diff {
		if diff[i] != 3 {
			t.Fatalf("Sub = %v, want all 3", diff)
		}
	}

	s := Scale(a, 2)
	if s[0] != 2 || s[1] != 4 || s[2] != 6 {
		t.Fatalf("Scale = %v", s)
	}
	// originals untouched
	if a[0] != 1 || b[0] != 4 {
		t.Fatal("non-in-place ops mutated inputs")
	}

	AddInPlace(a, b)
	if a[2] != 9 {
		t.Fatalf("AddInPlace: a = %v", a)
	}
	SubInPlace(a, b)
	if a[2] != 3 {
		t.Fatalf("SubInPlace: a = %v", a)
	}
	ScaleInPlace(a, 10)
	if a[0] != 10 {
		t.Fatalf("ScaleInPlace: a = %v", a)
	}
}

func TestAXPY(t *testing.T) {
	dst := Vector{1, 1}
	AXPY(dst, -0.5, Vector{2, 4})
	if dst[0] != 0 || dst[1] != -1 {
		t.Fatalf("AXPY = %v, want [0 -1]", dst)
	}
}

func TestDotNormDistance(t *testing.T) {
	a := Vector{3, 4}
	if Dot(a, a) != 25 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
	if Norm2(a) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(a))
	}
	b := Vector{0, 0}
	if Distance(a, b) != 5 {
		t.Fatalf("Distance = %v", Distance(a, b))
	}
	if SquaredDistance(a, b) != 25 {
		t.Fatalf("SquaredDistance = %v", SquaredDistance(a, b))
	}
}

func TestCosineSimilarity(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
	}{
		{"parallel", Vector{1, 0}, Vector{2, 0}, 1},
		{"antiparallel", Vector{1, 0}, Vector{-3, 0}, -1},
		{"orthogonal", Vector{1, 0}, Vector{0, 5}, 0},
		{"zero-vector", Vector{0, 0}, Vector{1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CosineSimilarity(tt.a, tt.b)
			if !almostEqual(got, tt.want, eps) {
				t.Fatalf("cos = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	vs := []Vector{{0, 0}, {2, 4}, {4, 8}}
	m := Mean(vs)
	if m[0] != 2 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
	// input vectors must survive
	if vs[0][0] != 0 || vs[1][0] != 2 {
		t.Fatal("Mean mutated inputs")
	}
}

func TestMaxPairwiseDistance(t *testing.T) {
	vs := []Vector{{0, 0}, {3, 4}, {1, 1}}
	if d := MaxPairwiseDistance(vs); !almostEqual(d, 5, eps) {
		t.Fatalf("MaxPairwiseDistance = %v, want 5", d)
	}
	if d := MaxPairwiseDistance([]Vector{{1, 2}}); d != 0 {
		t.Fatalf("single point distance = %v, want 0", d)
	}
}

func TestMedianScalar(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"single", []float64{7}, 7},
		{"repeated", []float64{5, 5, 5, 1}, 5},
		{"negative", []float64{-3, -1, -2}, -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := append([]float64(nil), tt.xs...)
			if got := MedianScalar(in); got != tt.want {
				t.Fatalf("median(%v) = %v, want %v", tt.xs, got, tt.want)
			}
			for i := range in {
				if in[i] != tt.xs[i] {
					t.Fatal("MedianScalar mutated input")
				}
			}
		})
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(Vector{1, -2, 0}) {
		t.Fatal("finite vector reported non-finite")
	}
	if IsFinite(Vector{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if IsFinite(Vector{math.Inf(1)}) {
		t.Fatal("+Inf not detected")
	}
	if IsFinite(Vector{math.Inf(-1)}) {
		t.Fatal("-Inf not detected")
	}
}

// The exponent-mask test must agree with math.IsNaN/IsInf on every class of
// bit pattern, wherever in the vector the value sits, on both of IsFinite's
// bodies: the AVX2 one tests blocks of sixteen and hands the rest to the Go
// loop, which tests blocks of eight with one branch and the tail one by one.
func TestIsFiniteBitPatterns(t *testing.T) { onEachSide(t, testIsFiniteBitPatterns) }

func testIsFiniteBitPatterns(t *testing.T) {
	cases := []struct {
		name   string
		bits   uint64
		finite bool
	}{
		{"+0", 0x0000000000000000, true},
		{"-0", 0x8000000000000000, true},
		{"smallest subnormal", 0x0000000000000001, true},
		{"largest subnormal", 0x000fffffffffffff, true},
		{"negative subnormal", 0x800fffffffffffff, true},
		{"smallest normal", 0x0010000000000000, true},
		{"+MaxFloat64", math.Float64bits(math.MaxFloat64), true},
		{"-MaxFloat64", math.Float64bits(-math.MaxFloat64), true},
		{"+Inf", 0x7ff0000000000000, false},
		{"-Inf", 0xfff0000000000000, false},
		{"quiet NaN", 0x7ff8000000000000, false},
		{"quiet NaN with payload", 0x7ff8dead0000beef, false},
		{"negative quiet NaN", 0xfff8000000000001, false},
		{"signalling NaN, lowest payload bit", 0x7ff0000000000001, false},
		{"signalling NaN, full payload", 0xfff7ffffffffffff, false},
	}
	for _, c := range cases {
		x := math.Float64frombits(c.bits)
		if want := !math.IsNaN(x) && !math.IsInf(x, 0); want != c.finite {
			t.Fatalf("%s: table says finite=%v, math package says %v", c.name, c.finite, want)
		}
		// Every position of lengths 0–40: up to two blocks of sixteen, the
		// blocks of eight after them, and the tail.
		for n := 0; n <= 40; n++ {
			for i := 0; i < n; i++ {
				v := make(Vector, n)
				for k := range v {
					v[k] = float64(k) - 3.5
				}
				v[i] = x
				if got := IsFinite(v); got != c.finite {
					t.Fatalf("%s at %d of %d: IsFinite = %v, want %v", c.name, i, n, got, c.finite)
				}
			}
		}
	}
	if !IsFinite(nil) {
		t.Fatal("empty vector reported non-finite")
	}
}

// TestIsFiniteAcrossCalls: a vector longer than one assembly call's span is
// scanned in several calls, and a NaN on either side of a seam is found.
func TestIsFiniteAcrossCalls(t *testing.T) {
	onEachSide(t, func(t *testing.T) {
		const d = 2*avx2Span + 37
		v := NewRNG(5).NormVec(make(Vector, d), 0, 1)
		if !IsFinite(v) {
			t.Fatal("finite vector reported non-finite")
		}
		for _, i := range []int{0, avx2Span - 1, avx2Span, 2*avx2Span - 1, 2 * avx2Span, d - 1} {
			x := v[i]
			v[i] = math.NaN()
			if IsFinite(v) {
				t.Fatalf("NaN at %d of %d not detected", i, d)
			}
			v[i] = x
		}
	})
}

var sinkFinite bool

// BenchmarkIsFinite207882 prices the inbound validator on one wide-model
// frame (the benchmark's d = 207,882): every received vector pays it once.
// At this size the pass is memory-bound.
func BenchmarkIsFinite207882(b *testing.B) { benchIsFinite(b, 207882) }

// BenchmarkIsFinite16384 is the same pass over one shard of the streaming
// workloads, which stays in cache.
func BenchmarkIsFinite16384(b *testing.B) { benchIsFinite(b, 16384) }

func benchIsFinite(b *testing.B, d int) {
	v := NewRNG(3).NormVec(make(Vector, d), 0, 1)
	b.SetBytes(int64(8 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFinite = IsFinite(v)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

// Property: ‖a−b‖² computed by SquaredDistance matches Dot(a−b, a−b).
func TestSquaredDistanceProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:2*half]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // avoid overflow artefacts
			}
		}
		d := Sub(a, b)
		return almostEqual(SquaredDistance(a, b), Dot(d, d), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scalar median lies within [min, max] of its inputs and is
// permutation invariant.
func TestMedianScalarProperty(t *testing.T) {
	rng := NewRNG(42)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) {
				return true
			}
		}
		m := MedianScalar(raw)
		lo, hi := raw[0], raw[0]
		for _, x := range raw {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if m < lo || m > hi {
			return false
		}
		// permutation invariance
		perm := rng.Perm(len(raw))
		shuffled := make([]float64, len(raw))
		for i, p := range perm {
			shuffled[i] = raw[p]
		}
		return MedianScalar(shuffled) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
