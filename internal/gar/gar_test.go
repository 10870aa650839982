package gar

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func vecs(vs ...tensor.Vector) []tensor.Vector { return vs }

func TestMean(t *testing.T) {
	out, err := Mean{}.Aggregate(vecs(
		tensor.Vector{0, 0}, tensor.Vector{2, 4}, tensor.Vector{4, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 2 {
		t.Fatalf("mean = %v", out)
	}
}

func TestMeanIsVulnerable(t *testing.T) {
	// One Byzantine input drags the mean arbitrarily far — the motivating
	// weakness of the vanilla baseline.
	out, err := Mean{}.Aggregate(vecs(
		tensor.Vector{1, 1}, tensor.Vector{1, 1}, tensor.Vector{1, 1}, tensor.Vector{1e9, 1e9}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] < 1e8 {
		t.Fatalf("mean unexpectedly robust: %v", out)
	}
}

func TestMedianKnownValues(t *testing.T) {
	out, err := Median{}.Aggregate(vecs(
		tensor.Vector{1, 10}, tensor.Vector{2, 30}, tensor.Vector{3, 20}))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 20 {
		t.Fatalf("median = %v, want [2 20]", out)
	}
}

func TestMedianRobustToMinority(t *testing.T) {
	// With a majority of honest values at 1, any minority of outliers cannot
	// move a coordinate of the median outside the honest range.
	inputs := vecs(
		tensor.Vector{1}, tensor.Vector{1.1}, tensor.Vector{0.9},
		tensor.Vector{1e12}, tensor.Vector{-1e12})
	out, err := Median{}.Aggregate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] < 0.9 || out[0] > 1.1 {
		t.Fatalf("median broke containment: %v", out)
	}
}

func TestMedianDoesNotMutateInputs(t *testing.T) {
	a := tensor.Vector{3, 1}
	b := tensor.Vector{1, 3}
	c := tensor.Vector{2, 2}
	if _, err := (Median{}).Aggregate(vecs(a, b, c)); err != nil {
		t.Fatal(err)
	}
	if a[0] != 3 || b[0] != 1 || c[0] != 2 {
		t.Fatal("Median mutated its inputs")
	}
}

// Property (containment): each coordinate of the median lies within the
// [min, max] of that coordinate over the inputs — the parallelotope property
// the contraction lemma builds on.
func TestMedianContainmentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n, d := 1+rng.Intn(9), 1+rng.Intn(6)
		inputs := make([]tensor.Vector, n)
		for i := range inputs {
			inputs[i] = rng.NormVec(make(tensor.Vector, d), 0, 5)
		}
		out, err := Median{}.Aggregate(inputs)
		if err != nil {
			return false
		}
		for c := 0; c < d; c++ {
			lo, hi := inputs[0][c], inputs[0][c]
			for _, v := range inputs {
				lo = math.Min(lo, v[c])
				hi = math.Max(hi, v[c])
			}
			if out[c] < lo-1e-12 || out[c] > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (permutation invariance) for the median rule.
func TestMedianPermutationInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n, d := 2+rng.Intn(8), 1+rng.Intn(5)
		inputs := make([]tensor.Vector, n)
		for i := range inputs {
			inputs[i] = rng.NormVec(make(tensor.Vector, d), 0, 3)
		}
		a, err := Median{}.Aggregate(inputs)
		if err != nil {
			return false
		}
		perm := rng.Perm(n)
		shuffled := make([]tensor.Vector, n)
		for i, p := range perm {
			shuffled[i] = inputs[p]
		}
		b, err := Median{}.Aggregate(shuffled)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKrumScoresPreconditions(t *testing.T) {
	ins := vecs(tensor.Vector{1}, tensor.Vector{2}, tensor.Vector{3})
	if _, err := KrumScores(ins, 1); !errors.Is(err, ErrTooFewInputs) {
		t.Fatalf("want ErrTooFewInputs, got %v", err)
	}
}

func TestKrumPicksDenseCluster(t *testing.T) {
	// 5 honest near origin + 1 far outlier with f=1 (n=6 ≥ 2f+3=5):
	// Krum must select one of the clustered points.
	rng := tensor.NewRNG(30)
	inputs := make([]tensor.Vector, 0, 6)
	for i := 0; i < 5; i++ {
		inputs = append(inputs, rng.NormVec(make(tensor.Vector, 3), 0, 0.1))
	}
	inputs = append(inputs, tensor.Vector{100, 100, 100})
	out, err := Krum{F: 1}.Aggregate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Norm2(out) > 1 {
		t.Fatalf("Krum selected the outlier: %v", out)
	}
}

func TestMultiKrumExcludesOutliers(t *testing.T) {
	rng := tensor.NewRNG(31)
	inputs := make([]tensor.Vector, 0, 8)
	for i := 0; i < 6; i++ {
		v := rng.NormVec(make(tensor.Vector, 4), 1, 0.05)
		inputs = append(inputs, v)
	}
	inputs = append(inputs, tensor.Vector{-500, -500, -500, -500})
	inputs = append(inputs, tensor.Vector{500, 500, 500, 500})
	out, err := MultiKrum{F: 2}.Aggregate(inputs) // n=8 ≥ 2·2+3=7
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range out {
		if math.Abs(x-1) > 0.5 {
			t.Fatalf("Multi-Krum output contaminated at %d: %v", i, out)
		}
	}
}

// Property: Multi-Krum's output stays within the bounding box of the honest
// inputs when the f Byzantine inputs are far outliers.
func TestMultiKrumConfinementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		fByz := 1 + rng.Intn(2)
		n := 2*fByz + 3 + rng.Intn(3)
		d := 1 + rng.Intn(5)
		honest := n - fByz
		inputs := make([]tensor.Vector, 0, n)
		for i := 0; i < honest; i++ {
			inputs = append(inputs, rng.NormVec(make(tensor.Vector, d), 0, 1))
		}
		for i := 0; i < fByz; i++ {
			// outliers far outside the honest cloud
			v := rng.NormVec(make(tensor.Vector, d), 1e6, 1)
			inputs = append(inputs, v)
		}
		out, err := MultiKrum{F: fByz}.Aggregate(inputs)
		if err != nil {
			return false
		}
		// Output must stay near the honest cloud (well below the outliers).
		return tensor.Norm2(out) < 1e3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiKrumSelectCount(t *testing.T) {
	rng := tensor.NewRNG(32)
	n, f := 9, 2
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormVec(make(tensor.Vector, 3), 0, 1)
	}
	sel, err := MultiKrumSelect(inputs, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != n-f-2 {
		t.Fatalf("selected %d, want n−f−2 = %d", len(sel), n-f-2)
	}
}

func TestTrimmedMean(t *testing.T) {
	inputs := vecs(
		tensor.Vector{1}, tensor.Vector{2}, tensor.Vector{3},
		tensor.Vector{1000}, tensor.Vector{-1000})
	out, err := TrimmedMean{F: 1}.Aggregate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// trims −1000 and 1000 → mean(1,2,3) = 2
	if out[0] != 2 {
		t.Fatalf("trimmed mean = %v, want 2", out[0])
	}
	if _, err := (TrimmedMean{F: 3}).Aggregate(inputs); !errors.Is(err, ErrTooFewInputs) {
		t.Fatalf("precondition not enforced: %v", err)
	}
}

func TestBulyanPreconditionAndRobustness(t *testing.T) {
	rng := tensor.NewRNG(33)
	f := 1
	n := 4*f + 3 // = 7
	inputs := make([]tensor.Vector, 0, n)
	for i := 0; i < n-f; i++ {
		inputs = append(inputs, rng.NormVec(make(tensor.Vector, 3), 2, 0.1))
	}
	inputs = append(inputs, tensor.Vector{-1e9, 1e9, -1e9})
	out, err := Bulyan{F: f}.Aggregate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range out {
		if math.Abs(x-2) > 1 {
			t.Fatalf("Bulyan contaminated at %d: %v", i, out)
		}
	}
	if _, err := (Bulyan{F: 2}).Aggregate(inputs); !errors.Is(err, ErrTooFewInputs) {
		t.Fatalf("Bulyan precondition not enforced: %v", err)
	}
}

func TestAggregateEmptyAndMismatched(t *testing.T) {
	rules := []Rule{Mean{}, Median{}, Krum{F: 1}, MultiKrum{F: 1},
		TrimmedMean{F: 1}, Bulyan{F: 1}}
	for _, r := range rules {
		if _, err := r.Aggregate(nil); err == nil {
			t.Fatalf("%s accepted empty input", r.Name())
		}
		if _, err := r.Aggregate(vecs(tensor.Vector{1}, tensor.Vector{1, 2})); err == nil {
			t.Fatalf("%s accepted mismatched dimensions", r.Name())
		}
	}
}

func TestRuleNamesDistinct(t *testing.T) {
	rules := []Rule{Mean{}, Median{}, Krum{F: 1}, MultiKrum{F: 1},
		TrimmedMean{F: 1}, Bulyan{F: 1}}
	seen := map[string]bool{}
	for _, r := range rules {
		if seen[r.Name()] {
			t.Fatalf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
}

// Contraction micro-property (Lemma 9.2.3): for aligned clouds, the distance
// between medians of two random (overlapping) subsets is on average strictly
// smaller than the max pairwise distance of the cloud.
func TestMedianContractionOnAlignedClouds(t *testing.T) {
	rng := tensor.NewRNG(34)
	const trials = 200
	var ratioSum float64
	for trial := 0; trial < trials; trial++ {
		d := 20
		u := rng.NormVec(make(tensor.Vector, d), 0, 1) // shared direction
		n := 9
		cloud := make([]tensor.Vector, n)
		for i := range cloud {
			a := rng.Norm() // position along u
			cloud[i] = make(tensor.Vector, d)
			for c := 0; c < d; c++ {
				cloud[i][c] = a*u[c] + 0.05*rng.Norm() // small misalignment
			}
		}
		q := 7
		y, err := Median{}.Aggregate(cloud[:q])
		if err != nil {
			t.Fatal(err)
		}
		z, err := Median{}.Aggregate(cloud[n-q:])
		if err != nil {
			t.Fatal(err)
		}
		maxD := tensor.MaxPairwiseDistance(cloud)
		if maxD == 0 {
			continue
		}
		ratioSum += tensor.Distance(y, z) / maxD
	}
	avg := ratioSum / trials
	if avg >= 1 {
		t.Fatalf("no contraction on average: E[ratio] = %v ≥ 1", avg)
	}
	t.Logf("average contraction ratio m = %.3f", avg)
}

func TestValidateHelpers(t *testing.T) {
	if err := CheckDeployment("server", 6, 1); err != nil {
		t.Fatal(err)
	}
	if err := CheckDeployment("server", 5, 1); err == nil {
		t.Fatal("n=5, f=1 should violate n ≥ 3f+3")
	}
	if err := CheckDeployment("server", 3, -1); err == nil {
		t.Fatal("negative f should be rejected")
	}
	if _, err := FromName("multi-krum", -1); err == nil {
		t.Fatal("FromName with negative f should be rejected")
	}
	if err := CheckQuorum("worker", 18, 5, 13); err != nil {
		t.Fatal(err)
	}
	if err := CheckQuorum("worker", 18, 5, 12); err == nil {
		t.Fatal("q=12 < 2f+3=13 should be rejected")
	}
	if err := CheckQuorum("worker", 18, 5, 14); err == nil {
		t.Fatal("q=14 > n−f=13 should be rejected")
	}
	if MinQuorum(5) != 13 || MaxQuorum(18, 5) != 13 || MinPopulation(1) != 6 {
		t.Fatal("bound helpers disagree with the theory")
	}
}
