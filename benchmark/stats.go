package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the middle two when even),
// NaN when xs is empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the p-quantile of xs (0 ≤ p ≤ 1), interpolating linearly
// between the two nearest order statistics; NaN when xs is empty.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := p * float64(len(s)-1)
	lo := int(k)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(k-float64(lo))
}

// fastShare is the share of a run's samples that decides a reported clock
// time. The machine shares its host, and the host's other guests slow
// stretches of a run by 10–50 % for seconds to minutes: the median over
// rounds then moves with how much of the run was disturbed (6–11 % between
// runs of the same code), while the speed of the fastest tenth of many short
// rounds — the program with the machine to itself — repeats to 2–7 %. A
// slower program is slower on its fastest rounds too, so regressions still
// show; stalls that hit only some steps are the traced tail metrics' job.
const fastShare = 0.1

// fastRate is the rate the fastest tenth of the samples reach (the 90th
// percentile), fastTime the duration they stay under (the 10th).
func fastRate(xs []float64) float64 { return quantile(xs, 1-fastShare) }
func fastTime(xs []float64) float64 { return quantile(xs, fastShare) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so the
// spread the suite prints is the spread the acceptance driver computes. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spreadShare is the inter-quartile distance as a share of the median — the
// quantity every regression bound is compared against.
func spreadShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tail picks the highest percentile that still has at least tailBeyond
// samples beyond it: the value with exactly tailBeyond larger samples, and
// the share of samples at or below it. With tailBeyond samples or fewer no
// percentile qualifies; ok is false and the maximum is returned at pct 100 so
// a caller can still print something, flagged.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0, false
	}
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}
