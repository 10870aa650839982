package gar

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Rule is a gradient aggregation rule.
type Rule interface {
	// Name identifies the rule in logs and experiment tables.
	Name() string
	// Aggregate combines the input vectors into one output vector. Inputs
	// are not modified; the output is freshly allocated. An error is
	// returned when the input set is too small for the rule's resilience
	// guarantee to hold.
	Aggregate(inputs []tensor.Vector) (tensor.Vector, error)
}

// ErrTooFewInputs is returned when a rule receives fewer inputs than its
// Byzantine-resilience precondition requires.
var ErrTooFewInputs = errors.New("gar: too few inputs for rule precondition")

// SelectiveRule is implemented by rules that filter a subset of their
// inputs (rather than blending all of them): SelectIndices reports which
// inputs the rule keeps. Deployments use it for accountability — repeatedly
// excluded senders are likely Byzantine (see stats.Suspicion).
type SelectiveRule interface {
	Rule
	// SelectIndices returns the indices of the inputs the rule's output is
	// built from.
	SelectIndices(inputs []tensor.Vector) ([]int, error)
}

func checkInputs(inputs []tensor.Vector) error {
	if len(inputs) == 0 {
		return fmt.Errorf("%w: empty input set", ErrTooFewInputs)
	}
	d := len(inputs[0])
	for i, v := range inputs {
		if len(v) != d {
			return fmt.Errorf("gar: input %d has dimension %d, want %d", i, len(v), d)
		}
	}
	return nil
}

// Mean is the arithmetic mean: the standard non-Byzantine aggregation
// ("vanilla TF" in the paper). A single Byzantine input can move its output
// arbitrarily — it is the baseline GuanYu is compared against.
type Mean struct{}

var _ Rule = Mean{}

// Name implements Rule.
func (Mean) Name() string { return "mean" }

// Aggregate implements Rule.
func (Mean) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	return tensor.Mean(inputs), nil
}

// Median is the coordinate-wise median M: coordinate i of the output is the
// scalar median of coordinate i over all inputs. Its geometric contraction
// property (Section 9.2.3 of the paper) is what prevents correct parameter
// servers from drifting apart.
type Median struct{}

var _ Rule = Median{}

// Name implements Rule.
func (Median) Name() string { return "coordinate-median" }

// Aggregate implements Rule.
func (Median) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	out := make(tensor.Vector, len(inputs[0]))
	if err := MedianInto(out, inputs); err != nil {
		return nil, err
	}
	return out, nil
}

// lexLess orders equal-length vectors lexicographically (tie-breaker for
// selection criteria that must not depend on input order).
func lexLess(a, b tensor.Vector) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// KrumScores returns the Krum score of every input: the score of input x is
// the sum of squared distances between x and its n−f−2 closest other inputs.
// Lower scores indicate vectors in denser (more plausibly honest)
// neighbourhoods.
func KrumScores(inputs []tensor.Vector, f int) ([]float64, error) {
	n := len(inputs)
	if n < 2*f+3 {
		return nil, fmt.Errorf("%w: Krum needs n ≥ 2f+3, got n=%d f=%d",
			ErrTooFewInputs, n, f)
	}
	return scoresFromDist(squaredDistances(inputs), f), nil
}

// scoresFromDist turns a full pairwise squared-distance matrix into Krum
// scores: input i scores the sum of its n−f−2 smallest distances to other
// inputs. Shared verbatim by the whole-vector path and the shard-streaming
// path, so both produce bit-identical scores from equal matrices. Each row
// is sorted before it is summed, so a score does not depend on the order of
// the other inputs.
func scoresFromDist(dist [][]float64, f int) []float64 {
	n := len(dist)
	k := n - f - 2 // number of closest neighbours in the score
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, dist[i][j])
			}
		}
		sort.Float64s(row)
		var s float64
		for _, d := range row[:k] {
			s += d
		}
		scores[i] = s
	}
	return scores
}

// smallestByScore returns the indices of the keep smallest scores, ordered
// by ascending score. Shared by Multi-Krum's whole and streaming selection
// paths: a deterministic sort over identical score arrays yields identical
// index permutations, which is what makes the two paths select — and hence
// aggregate — identically.
func smallestByScore(scores []float64, keep int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	return idx[:keep]
}

// Krum selects the single smallest-scoring input (Blanchard et al., 2017).
type Krum struct {
	// F is the declared number of Byzantine inputs tolerated.
	F int
}

var _ Rule = Krum{}

// Name implements Rule.
func (k Krum) Name() string { return fmt.Sprintf("krum(f=%d)", k.F) }

// Aggregate implements Rule.
func (k Krum) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	scores, err := KrumScores(inputs, k.F)
	if err != nil {
		return nil, err
	}
	return tensor.Clone(inputs[argmin(scores)]), nil
}

// argmin returns the first index of the smallest score.
func argmin(scores []float64) int {
	best := 0
	for i, s := range scores {
		if s < scores[best] {
			best = i
		}
	}
	return best
}

// MultiKrum is the paper's F: it averages the n−f−2 smallest-scoring inputs.
// It is (α,f)-Byzantine resilient for n ≥ 2f+3 and, unlike Krum, keeps most
// of the variance-reduction benefit of averaging.
type MultiKrum struct {
	// F is the declared number of Byzantine inputs tolerated.
	F int
}

var _ Rule = MultiKrum{}

// Name implements Rule.
func (m MultiKrum) Name() string { return fmt.Sprintf("multi-krum(f=%d)", m.F) }

// Aggregate implements Rule.
func (m MultiKrum) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	selected, err := MultiKrumSelect(inputs, m.F)
	if err != nil {
		return nil, err
	}
	return tensor.Mean(selected), nil
}

// SelectIndices implements SelectiveRule.
func (m MultiKrum) SelectIndices(inputs []tensor.Vector) ([]int, error) {
	return MultiKrumSelectIndices(inputs, m.F)
}

var _ SelectiveRule = MultiKrum{}

// MultiKrumSelect returns the n−f−2 smallest-scoring inputs (the set whose
// mean Multi-Krum outputs). Exposed for tests and for Bulyan.
func MultiKrumSelect(inputs []tensor.Vector, f int) ([]tensor.Vector, error) {
	idx, err := MultiKrumSelectIndices(inputs, f)
	if err != nil {
		return nil, err
	}
	out := make([]tensor.Vector, len(idx))
	for i, k := range idx {
		out[i] = inputs[k]
	}
	return out, nil
}

// MultiKrumSelectIndices returns the indices of the n−f−2 smallest-scoring
// inputs. The complement — the f+2 highest-scoring inputs — is the set the
// rule effectively accuses of being outliers; callers use it to maintain
// per-sender suspicion statistics (see stats.Suspicion).
func MultiKrumSelectIndices(inputs []tensor.Vector, f int) ([]int, error) {
	scores, err := KrumScores(inputs, f)
	if err != nil {
		return nil, err
	}
	return smallestByScore(scores, len(inputs)-f-2), nil
}

// TrimmedMean is the coordinate-wise trimmed mean: per coordinate, the f
// smallest and f largest values are discarded and the rest averaged.
// Requires n ≥ 2f+1. Provided as an ablation alternative to Multi-Krum.
type TrimmedMean struct {
	// F is the number of values trimmed from each tail.
	F int
}

var _ Rule = TrimmedMean{}

// Name implements Rule.
func (t TrimmedMean) Name() string { return fmt.Sprintf("trimmed-mean(f=%d)", t.F) }

// Aggregate implements Rule.
func (t TrimmedMean) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	n := len(inputs)
	if n < 2*t.F+1 {
		return nil, fmt.Errorf("%w: trimmed mean needs n ≥ 2f+1, got n=%d f=%d",
			ErrTooFewInputs, n, t.F)
	}
	out := make(tensor.Vector, len(inputs[0]))
	trimmedInto(out, inputs, t.F)
	return out, nil
}

// trimmedInto writes the coordinate-wise f-trimmed mean of inputs into dst
// (dst and every input share one length). The shard-streaming path calls
// this same kernel on shard slices, so sharded and whole-vector aggregation
// are bit-identical by construction.
func trimmedInto(dst tensor.Vector, inputs []tensor.Vector, f int) {
	reduceAllColumns(dst, inputs, reduction{trim: f, beta: len(inputs) - 2*f})
}

// Bulyan composes Multi-Krum selection with a coordinate-wise trimmed
// aggregation (El-Mhamdi et al., ICML 2018 — "The hidden vulnerability of
// distributed learning in Byzantium"). It defends against attacks that hide
// large per-coordinate deviations inside small Euclidean distances, at the
// price of the stronger requirement n ≥ 4f+3.
type Bulyan struct {
	// F is the declared number of Byzantine inputs tolerated.
	F int
}

var _ Rule = Bulyan{}

// Name implements Rule.
func (b Bulyan) Name() string { return fmt.Sprintf("bulyan(f=%d)", b.F) }

// Aggregate implements Rule.
func (b Bulyan) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	if err := checkInputs(inputs); err != nil {
		return nil, err
	}
	n, f := len(inputs), b.F
	if n < 4*f+3 {
		return nil, fmt.Errorf("%w: Bulyan needs n ≥ 4f+3, got n=%d f=%d",
			ErrTooFewInputs, n, f)
	}
	// Phase 1: iteratively pick θ = n − 2f vectors by repeated Krum
	// selection, removing each winner from the pool. Removing a vector
	// changes no distance between the others, so the matrix is built once
	// and loses the winner's row and column along with the pool.
	pool := make([]tensor.Vector, n)
	copy(pool, inputs)
	dist := squaredDistances(inputs)
	theta := n - 2*f
	selected := make([]tensor.Vector, 0, theta)
	for len(selected) < theta {
		if len(pool) < 2*f+3 {
			// Pool shrank below the Krum precondition: finish the selection
			// with the remaining vectors closest to the pool's coordinate-wise
			// median (still ≥ 2f+1 candidates). Closeness-to-median is
			// order-free — unlike "take the pool in its current order" — so
			// the rule stays permutation-invariant; exact-distance ties break
			// lexicographically, which makes duplicates interchangeable.
			med, merr := (Median{}).Aggregate(pool)
			if merr != nil {
				return nil, merr
			}
			sort.SliceStable(pool, func(a, b int) bool {
				da, db := tensor.SquaredDistance(pool[a], med), tensor.SquaredDistance(pool[b], med)
				if da != db {
					return da < db
				}
				return lexLess(pool[a], pool[b])
			})
			selected = append(selected, pool[:theta-len(selected)]...)
			break
		}
		best := argmin(scoresFromDist(dist, f))
		selected = append(selected, pool[best])
		pool = append(pool[:best], pool[best+1:]...)
		dist = deleteRowCol(dist, best)
	}
	// Phase 2: per coordinate, average the β = θ − 2f values closest to the
	// median of the selected set — the tightest window of β consecutive
	// entries of the sorted column.
	out := make(tensor.Vector, len(inputs[0]))
	reduceAllColumns(out, selected, reduction{beta: theta - 2*f})
	return out, nil
}
