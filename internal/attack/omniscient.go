package attack

import (
	"math"

	"repro/internal/gar"
	"repro/internal/tensor"
)

// This file implements the state-of-the-art *omniscient* attacks from the
// post-Krum literature: behaviours that observe the honest vectors of the
// whole cluster (via ClusterView) before choosing their corruption, rather
// than perturbing blindly. They are the adversaries the paper's threat
// model actually admits — arbitrarily fast, fully informed, colluding —
// and they are what separates robust aggregation rules that merely filter
// outliers from rules that survive adaptive collusion.

// copied is the pass-through fallback: the honest vector itself, in a
// free-list vector the caller owns.
func copied(honest tensor.Vector) tensor.Vector {
	out := tensor.Get(len(honest))
	copy(out, honest)
	return out
}

// scaled is the fallback that sends alpha times the honest vector, in a
// free-list vector the caller owns.
func scaled(alpha float64, honest tensor.Vector) tensor.Vector {
	out := tensor.Get(len(honest))
	for i, x := range honest {
		out[i] = alpha * x
	}
	return out
}

// ALIE is "A Little Is Enough" (Baruch, Baruch, Goldberg — NeurIPS 2019):
// the colluders agree on a vector that deviates from the honest coordinate
// mean by only z standard deviations per coordinate. The deviation is small
// enough to sit inside the honest point cloud — defeating distance-based
// filters like Krum — yet, applied by every colluder in the same direction,
// biases the aggregate persistently.
type ALIE struct {
	// Z is the per-coordinate deviation in honest standard deviations.
	// 0 selects the paper's z_max from the population sizes in the view.
	Z float64
}

var _ Omniscient = ALIE{}

// Name implements Attack.
func (ALIE) Name() string { return "alie" }

// Corrupt implements Attack: without a view, the honest vector.
func (ALIE) Corrupt(honest tensor.Vector, _ int, _ string) tensor.Vector { return copied(honest) }

// Craft implements Omniscient.
func (a ALIE) Craft(out tensor.Vector, v ClusterView) {
	hv := v.Honest()
	z := a.Z
	if z <= 0 {
		z = alieZMax(len(hv)+v.Colluders(), max(v.F(), v.Colluders()))
	}
	alieInto(out, hv, z)
}

// alieInto writes mean − z·σ of vs per coordinate into out, σ the population
// standard deviation, in one pass that keeps neither the mean nor σ as a
// vector. Each coordinate's arithmetic is tensor.Mean's and then the
// deviation's, in the same order: the sum in vs order scaled by 1/n, the
// squared deviations summed in vs order, then √(s/n) — so the result is
// bit-identical to computing the two vectors first.
func alieInto(out tensor.Vector, vs []tensor.Vector, z float64) {
	inv := 1 / float64(len(vs))
	for i := range out {
		m := vs[0][i]
		for _, v := range vs[1:] {
			m += v[i]
		}
		m *= inv
		var s float64
		if len(vs) >= 2 {
			for _, v := range vs {
				d := v[i] - m
				s += d * d
			}
		}
		out[i] = m - z*math.Sqrt(s*inv)
	}
}

// alieZMax is the z the ALIE paper derives: the largest deviation such that
// the crafted vector still has more supporters (honest vectors within z
// standard deviations) than a majority filter needs.
func alieZMax(n, f int) float64 {
	s := n/2 + 1 - f // supporters required
	if n-f <= 0 || s <= 0 || n-f-s <= 0 {
		return 1
	}
	return invNormCDF(float64(n-f-s) / float64(n-f))
}

// InnerProduct is the inner-product manipulation attack (Xie, Koyejo, Gupta
// — UAI 2020): the colluders send −ε times the honest mean. For small ε the
// vector is well inside the honest cloud (robust rules keep it), but it
// drags the aggregate toward a negative inner product with the true
// gradient, stalling or reversing descent.
type InnerProduct struct {
	// Eps scales the negated honest mean (default 0.5 when 0).
	Eps float64
}

var _ Omniscient = InnerProduct{}

// Name implements Attack.
func (InnerProduct) Name() string { return "inner-product" }

// Corrupt implements Attack: without a view, −ε times the honest vector.
func (a InnerProduct) Corrupt(honest tensor.Vector, _ int, _ string) tensor.Vector {
	return scaled(-a.eps(), honest)
}

// Craft implements Omniscient.
func (a InnerProduct) Craft(out tensor.Vector, v ClusterView) {
	// tensor.Mean's arithmetic, in out.
	hv := v.Honest()
	copy(out, hv[0])
	for _, h := range hv[1:] {
		tensor.AddInPlace(out, h)
	}
	tensor.ScaleInPlace(out, 1/float64(len(hv)))
	tensor.ScaleInPlace(out, -a.eps())
}

func (a InnerProduct) eps() float64 {
	if a.Eps <= 0 {
		return 0.5
	}
	return a.Eps
}

// Mimic is the mimic attack (Karimireddy, He, Jaggi — ICLR 2022): every
// colluder replays one fixed honest participant's vector. Nothing about the
// copies is an outlier — they are literal honest values — but the victim's
// sampling noise is amplified n-fold in the aggregate, starving the other
// honest contributions. It specifically defeats rules whose guarantee rests
// on outlier filtering.
type Mimic struct {
	// Victim indexes the honest vector to replay (mod the visible set).
	Victim int
}

var _ Omniscient = Mimic{}

// Name implements Attack.
func (Mimic) Name() string { return "mimic" }

// Corrupt implements Attack: without a view, the honest vector.
func (Mimic) Corrupt(honest tensor.Vector, _ int, _ string) tensor.Vector { return copied(honest) }

// Craft implements Omniscient.
func (a Mimic) Craft(out tensor.Vector, v ClusterView) {
	hv := v.Honest()
	i := a.Victim % len(hv) // in (−len, len): no negation to overflow
	if i < 0 {
		i += len(hv)
	}
	copy(out, hv[i])
}

// AntiKrum is the local-model poisoning attack of Fang et al. (USENIX
// Security 2020), specialised against Krum-family aggregation: the
// colluders push in the direction −sign(mean) by the largest magnitude λ
// such that (simulating the server's own rule) one of their copies is
// still *selected* by Krum. The server's defence is turned into the
// adversary's oracle.
type AntiKrum struct {
	// Colluders overrides the number of coordinated copies assumed in the
	// simulation (0 = the view's count).
	Colluders int
}

var _ Omniscient = AntiKrum{}

// Name implements Attack.
func (AntiKrum) Name() string { return "anti-krum" }

// Corrupt implements Attack: without a view, plain gradient ascent at unit
// scale.
func (AntiKrum) Corrupt(honest tensor.Vector, _ int, _ string) tensor.Vector {
	return scaled(-1, honest)
}

// Craft implements Omniscient.
func (a AntiKrum) Craft(out tensor.Vector, v ClusterView) {
	hv := v.Honest()
	c := a.Colluders
	if c <= 0 {
		c = max(v.Colluders(), 1)
	}
	f := max(v.F(), c)
	mean := tensor.Mean(hv)
	dir := make(tensor.Vector, len(mean))
	for i, x := range mean {
		if math.Signbit(x) {
			dir[i] = -1
		} else {
			dir[i] = 1
		}
	}
	lambda := maxKrumLambda(hv, dir, mean, c, f)
	copy(out, mean)
	tensor.AXPY(out, -lambda, dir)
}

// maxKrumLambda binary-searches the largest λ for which a crafted vector
// mean − λ·dir, submitted by c colluders alongside the honest vectors, is
// still Krum-selected at declared bound f. λ = 0 duplicates the honest mean
// (always in the densest neighbourhood), so the search is anchored at an
// accepted point.
func maxKrumLambda(honest []tensor.Vector, dir, mean tensor.Vector, c, f int) float64 {
	accepted := func(lambda float64) bool {
		v := tensor.Clone(mean)
		tensor.AXPY(v, -lambda, dir)
		pool := make([]tensor.Vector, 0, c+len(honest))
		for i := 0; i < c; i++ {
			pool = append(pool, v)
		}
		pool = append(pool, honest...)
		scores, err := gar.KrumScores(pool, f)
		if err != nil {
			// Too few vectors to simulate the defence; treat any λ as
			// accepted and rely on the upper bound to stay moderate.
			return true
		}
		best := 0
		for i, s := range scores {
			if s < scores[best] {
				best = i
			}
		}
		return best < c // one of the colluders' copies wins
	}

	var scale float64
	for _, x := range mean {
		scale += math.Abs(x)
	}
	hi := 2*scale/float64(len(mean)+1) + 1 // generous upper bound on useful λ
	if accepted(hi) {
		return hi
	}
	lo := 0.0
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if accepted(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// invNormCDF is the Acklam rational approximation of the standard normal
// quantile function Φ⁻¹(p), accurate to ~1e-9 — enough for choosing an
// attack magnitude.
func invNormCDF(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
