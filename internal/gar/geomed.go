package gar

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// GeoMed approximates the geometric median — the point minimising the sum
// of Euclidean distances to the inputs — with Weiszfeld iterations. The
// geometric median has the optimal 1/2 breakdown point (Rousseeuw 1985,
// cited by the paper for the synchronous bound) and is the classical
// alternative to the coordinate-wise median for parameter aggregation; it
// is provided as an extension rule for the ablation harness.
type GeoMed struct {
	// MaxIters bounds the Weiszfeld iterations (default 64).
	MaxIters int
	// Tol is the convergence threshold on the iterate movement (default
	// 1e-9 relative to the current scale).
	Tol float64
}

var _ Rule = GeoMed{}

// Name implements Rule.
func (GeoMed) Name() string { return "geometric-median" }

// Aggregate implements Rule.
func (g GeoMed) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	maxIters := g.MaxIters
	if maxIters <= 0 {
		maxIters = 64
	}
	tol := g.Tol
	if tol <= 0 {
		tol = 1e-9
	}

	// Start from the coordinate-wise median: cheap and already robust, so
	// Weiszfeld converges in a handful of iterations.
	y, err := Median{}.Aggregate(inputs)
	if err != nil {
		return nil, err
	}
	d := len(y)
	next := make(tensor.Vector, d)
	for iter := 0; iter < maxIters; iter++ {
		var wSum float64
		for i := range next {
			next[i] = 0
		}
		coincident := false
		for _, x := range inputs {
			dist := tensor.Distance(x, y)
			if dist < 1e-12 {
				// Weiszfeld is undefined at an input point; the input point
				// itself is within tolerance of the optimum here.
				coincident = true
				break
			}
			w := 1 / dist
			wSum += w
			for i := range next {
				next[i] += w * x[i]
			}
		}
		if coincident || wSum == 0 {
			break
		}
		tensor.ScaleInPlace(next, 1/wSum)
		moved := tensor.Distance(next, y)
		copy(y, next)
		if moved <= tol*(1+tensor.Norm2(y)) {
			break
		}
	}
	if !tensor.IsFinite(y) {
		return nil, fmt.Errorf("gar: geometric median diverged (non-finite iterate)")
	}
	return y, nil
}

// MDA is Minimum-Diameter Averaging: it averages the subset of n−f inputs
// with the smallest diameter (max pairwise distance). Brute-force over the
// C(n, f) subsets, so it is only practical for small f — which is exactly
// the deployment regime of the paper (f ≤ 5). MDA achieves the optimal
// breakdown and error bounds among averaging-style GARs.
type MDA struct {
	// F is the number of inputs excluded (the declared Byzantine count).
	F int
}

var _ Rule = MDA{}

// Name implements Rule.
func (m MDA) Name() string { return fmt.Sprintf("mda(f=%d)", m.F) }

// Aggregate implements Rule.
func (m MDA) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	idx, err := m.SelectIndices(inputs)
	if err != nil {
		return nil, err
	}
	sel := make([]tensor.Vector, len(idx))
	for i, k := range idx {
		sel[i] = inputs[k]
	}
	return tensor.Mean(sel), nil
}

var _ SelectiveRule = MDA{}

// SelectIndices implements SelectiveRule: it returns the minimum-diameter
// subset of size n−f.
func (m MDA) SelectIndices(inputs []tensor.Vector) ([]int, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	n, f := len(inputs), m.F
	if f < 0 || n <= f {
		return nil, fmt.Errorf("%w: MDA needs n > f ≥ 0, got n=%d f=%d",
			ErrTooFewInputs, n, f)
	}
	if f == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}

	// Pairwise distances once.
	dist := squaredDistances(inputs)
	for _, row := range dist {
		for j, dd := range row {
			row[j] = math.Sqrt(dd)
		}
	}

	keep := n - f
	best := math.Inf(1)
	var bestSubset []int

	// Enumerate all subsets of size keep via combination walking.
	subset := make([]int, keep)
	for i := range subset {
		subset[i] = i
	}
	for {
		var diam float64
		for a := 0; a < keep && diam < best; a++ {
			for b := a + 1; b < keep; b++ {
				if dd := dist[subset[a]][subset[b]]; dd > diam {
					diam = dd
				}
			}
		}
		// The nil check guarantees a selection even when NaN coordinates
		// make every diameter comparison false — Byzantine payloads must
		// degrade the choice, not panic the rule on an empty subset.
		if bestSubset == nil || diam < best {
			best = diam
			bestSubset = append(bestSubset[:0], subset...)
		}
		// next combination
		i := keep - 1
		for i >= 0 && subset[i] == n-keep+i {
			i--
		}
		if i < 0 {
			break
		}
		subset[i]++
		for j := i + 1; j < keep; j++ {
			subset[j] = subset[j-1] + 1
		}
	}

	return bestSubset, nil
}
