package gar

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// Property-based tests of the resilience invariants the theory promises,
// checked over seeded random inputs with adversarially-chosen f-subsets:
//
//   - coordinate-wise median and trimmed mean stay inside the honest
//     per-coordinate range for ANY f corrupt inputs (n ≥ 2f+1);
//   - Krum returns an input vector; Multi-Krum returns the average of its
//     selected input subset;
//   - every rule is permutation-invariant (exactly for order-free kernels,
//     to summation-order rounding for averaging ones);
//   - the legality checks accept exactly the boundary of the paper's
//     bounds (Section 3.2, stated in validate.go and the registry).

// propCase is one seeded random instance: n total inputs of dimension d, of
// which the f at corruptIdx are adversarial (huge, tiny, sign-flipped or
// colluding copies — chosen by the seed).
type propCase struct {
	n, f, d int
	inputs  []tensor.Vector
	corrupt map[int]bool
}

func genCase(seed uint64, n, f, d int) propCase {
	rng := tensor.NewRNG(seed)
	c := propCase{n: n, f: f, d: d, corrupt: make(map[int]bool, f)}
	c.inputs = make([]tensor.Vector, n)
	for i := range c.inputs {
		c.inputs[i] = rng.NormVec(make([]float64, d), 0, 1)
	}
	// Corrupt a random f-subset with a seed-chosen strategy.
	perm := rng.Perm(n)
	var colluding tensor.Vector
	for k := 0; k < f; k++ {
		i := perm[k]
		c.corrupt[i] = true
		switch rng.Intn(4) {
		case 0: // huge outlier
			c.inputs[i] = rng.NormVec(make([]float64, d), 0, 1e6)
		case 1: // tiny (stalling) vector
			c.inputs[i] = make(tensor.Vector, d)
		case 2: // sign-flipped amplification of an honest vector
			c.inputs[i] = tensor.Scale(c.inputs[perm[n-1]], -30)
		default: // small-variance collusion (ALIE-style copies)
			if colluding == nil {
				colluding = rng.NormVec(make([]float64, d), 3, 1e-3)
			}
			c.inputs[i] = tensor.Clone(colluding)
		}
	}
	return c
}

// honestRange returns the per-coordinate [min, max] over honest inputs.
func (c propCase) honestRange() (lo, hi tensor.Vector) {
	lo = make(tensor.Vector, c.d)
	hi = make(tensor.Vector, c.d)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for j, v := range c.inputs {
		if c.corrupt[j] {
			continue
		}
		for i, x := range v {
			lo[i] = math.Min(lo[i], x)
			hi[i] = math.Max(hi[i], x)
		}
	}
	return lo, hi
}

// propSizes are (n, f) pairs at and above the coordinate-rule boundary
// n ≥ 2f+1, including the exact boundary where the honest majority is
// slimmest.
var propSizes = []struct{ n, f int }{
	{3, 1}, {5, 2}, {7, 3}, {9, 4}, {13, 5}, {18, 5}, {21, 10},
}

func TestMedianAndTrimmedMeanStayInHonestRange(t *testing.T) {
	for _, size := range propSizes {
		for seed := uint64(0); seed < 30; seed++ {
			c := genCase(seed*31+uint64(size.n), size.n, size.f, 6)
			lo, hi := c.honestRange()
			rules := []Rule{Median{}, TrimmedMean{F: size.f}}
			for _, rule := range rules {
				out, err := rule.Aggregate(c.inputs)
				if err != nil {
					t.Fatalf("n=%d f=%d seed=%d %s: %v", size.n, size.f, seed, rule.Name(), err)
				}
				for i, x := range out {
					if x < lo[i]-1e-12 || x > hi[i]+1e-12 {
						t.Fatalf("n=%d f=%d seed=%d %s: coordinate %d = %v outside honest range [%v, %v]",
							size.n, size.f, seed, rule.Name(), i, x, lo[i], hi[i])
					}
				}
			}
		}
	}
}

func TestMultiKrumOutputIsAverageOfSelection(t *testing.T) {
	for _, size := range propSizes {
		if size.n < 2*size.f+3 {
			continue
		}
		for seed := uint64(0); seed < 20; seed++ {
			c := genCase(seed*13+uint64(size.n), size.n, size.f, 5)
			rule := MultiKrum{F: size.f}
			out, err := rule.Aggregate(c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := rule.SelectIndices(c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if len(idx) != size.n-size.f-2 {
				t.Fatalf("selection size %d, want n−f−2 = %d", len(idx), size.n-size.f-2)
			}
			sel := make([]tensor.Vector, len(idx))
			for i, k := range idx {
				sel[i] = c.inputs[k]
			}
			want := tensor.Mean(sel)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("n=%d f=%d seed=%d: output differs from mean of selection at %d",
						size.n, size.f, seed, i)
				}
			}
		}
	}
}

// allRules builds every registered rule at a given f.
func allRules(t *testing.T, f int) []Rule {
	t.Helper()
	out := make([]Rule, 0, len(RuleNames()))
	for _, name := range RuleNames() {
		r, err := FromName(name, f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestAllRulesPermutationInvariant(t *testing.T) {
	const n, f, d = 13, 2, 6 // n ≥ 4f+3 so even Bulyan is legal
	for seed := uint64(0); seed < 15; seed++ {
		c := genCase(seed*7+3, n, f, d)
		rng := tensor.NewRNG(seed + 99)
		perm := rng.Perm(n)
		permuted := make([]tensor.Vector, n)
		for i, p := range perm {
			permuted[i] = c.inputs[p]
		}
		for _, rule := range allRules(t, f) {
			a, err := rule.Aggregate(c.inputs)
			if err != nil {
				t.Fatalf("%s: %v", rule.Name(), err)
			}
			b, err := rule.Aggregate(permuted)
			if err != nil {
				t.Fatalf("%s permuted: %v", rule.Name(), err)
			}
			for i := range a {
				// Averaging rules fold in input order, so permutation may
				// shift the result by summation-order rounding; order-free
				// kernels must match exactly. The tolerance scales with the
				// coordinate magnitude (corrupt inputs reach 1e6).
				tol := 1e-9 * math.Max(1, math.Abs(a[i]))
				if math.Abs(a[i]-b[i]) > tol {
					t.Fatalf("%s seed=%d: coordinate %d not permutation-invariant: %v vs %v",
						rule.Name(), seed, i, a[i], b[i])
				}
			}
		}
	}
}

// TestLegalityBoundaryTable walks the exact boundary of the paper's bounds
// as stated in validate.go and the registry: populations n ≥ 3f+3, quorums
// 2f+3 ≤ q ≤ n−f, and per-rule input preconditions at MinInputs.
func TestLegalityBoundaryTable(t *testing.T) {
	for f := 0; f <= 4; f++ {
		nMin := MinPopulation(f)
		if err := CheckDeployment("role", nMin, f); err != nil {
			t.Fatalf("f=%d: boundary population n=3f+3=%d rejected: %v", f, nMin, err)
		}
		if err := CheckDeployment("role", nMin-1, f); err == nil {
			t.Fatalf("f=%d: population %d below 3f+3 accepted", f, nMin-1)
		}
		n := nMin
		qMin, qMax := MinQuorum(f), MaxQuorum(n, f)
		if err := CheckQuorum("role", n, f, qMin); err != nil {
			t.Fatalf("f=%d: boundary quorum q=2f+3=%d rejected: %v", f, qMin, err)
		}
		if err := CheckQuorum("role", n, f, qMax); err != nil {
			t.Fatalf("f=%d: boundary quorum q=n−f=%d rejected: %v", f, qMax, err)
		}
		if err := CheckQuorum("role", n, f, qMin-1); err == nil {
			t.Fatalf("f=%d: quorum %d below 2f+3 accepted", f, qMin-1)
		}
		if err := CheckQuorum("role", n, f, qMax+1); err == nil {
			t.Fatalf("f=%d: quorum %d above n−f accepted", f, qMax+1)
		}
	}

	// Per-rule input-cardinality boundary: exactly MinInputs succeeds,
	// one fewer errors with ErrTooFewInputs — never a panic or a bogus
	// output.
	rng := tensor.NewRNG(5)
	for _, name := range RuleNames() {
		for f := 0; f <= 3; f++ {
			spec, err := LookupSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			min := spec.MinInputs(f)
			rule, err := FromName(name, f)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(n int) []tensor.Vector {
				vs := make([]tensor.Vector, n)
				for i := range vs {
					vs[i] = rng.NormVec(make([]float64, 4), 0, 1)
				}
				return vs
			}
			if out, err := rule.Aggregate(mk(min)); err != nil || len(out) != 4 {
				t.Fatalf("%s f=%d: boundary input count %d failed: out=%v err=%v",
					name, f, min, out, err)
			}
			if min > 1 {
				if _, err := rule.Aggregate(mk(min - 1)); err == nil {
					t.Fatalf("%s f=%d: %d inputs (below MinInputs=%d) accepted",
						name, f, min-1, min)
				}
			}
			if _, err := rule.Aggregate(nil); err == nil {
				t.Fatalf("%s: empty input set accepted", name)
			}
		}
	}
}

// TestMismatchedDimensionsRejected: shape errors must surface as errors,
// never as panics or silently truncated aggregates.
func TestMismatchedDimensionsRejected(t *testing.T) {
	bad := []tensor.Vector{make(tensor.Vector, 4), make(tensor.Vector, 5),
		make(tensor.Vector, 4), make(tensor.Vector, 4), make(tensor.Vector, 4),
		make(tensor.Vector, 4), make(tensor.Vector, 4), make(tensor.Vector, 4),
		make(tensor.Vector, 4), make(tensor.Vector, 4), make(tensor.Vector, 4)}
	for _, rule := range allRules(t, 1) {
		if _, err := rule.Aggregate(bad); err == nil {
			t.Fatalf("%s: mismatched dimensions accepted", rule.Name())
		}
	}
}

func TestGenCaseSanity(t *testing.T) {
	// The generator must actually produce f corrupt entries and n−f honest
	// ones, or every property above is vacuous.
	for _, size := range propSizes {
		c := genCase(1, size.n, size.f, 3)
		if len(c.corrupt) != size.f {
			t.Fatalf("n=%d f=%d: %d corrupt entries", size.n, size.f, len(c.corrupt))
		}
		lo, hi := c.honestRange()
		for i := range lo {
			if !(lo[i] <= hi[i]) {
				t.Fatal(fmt.Sprintf("empty honest range at coordinate %d", i))
			}
		}
	}
}
