package gar

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The column kernel behind every sorting rule (median, trimmed mean,
// Bulyan's phase 2). The paper fixes its quorums to a handful of inputs
// (q = 5 parameter vectors, q̄ = 13 gradients at the 6/18 shape), so instead
// of gathering one coordinate into a scratch column and sorting it d times,
// the kernel copies a tile of coordinates into n contiguous rows, runs a
// comparator network over whole rows with Go's NaN-exact min/max builtins,
// and reduces each sorted column. The median of five needs no tile: median5
// is ten min/max in registers — with AVX2, VMINPD/VMAXPD on four coordinates
// at once (median5AVX2). The gather-and-sort stays as the reference
// (sortedColumn): it serves n > maxNet and every coordinate on which the
// kernels could disagree with it.

const (
	// maxNet is the largest input count with a comparator network (and
	// with an AVX2 pairwise-distance body); larger quorums take the
	// reference path.
	maxNet = 16
	// tileW coordinates × maxNet rows × 8 bytes is a 32 KiB stack array; at
	// q̄ = 13 the 26 KiB actually touched stay in L1.
	tileW = 256
	// avx2Span bounds an assembly call, inside which a goroutine cannot be
	// preempted: ≤ avx2Span coordinates of a median, one tile of avx2Span
	// values (16 KiB; at q̄ = 13 larger tiles measured slower) of distances.
	avx2Span = 2048
)

// useAVX2 selects median5Columns' and accumulatePairwise's assembly bodies;
// their Go loops are the body elsewhere and the tests' reference.
var useAVX2 = cpu.AVX2

// comparator orders rows a < b of a tile: row a receives the minimum when
// lo, row b the maximum when hi (a pruned comparator keeps one of the two).
type comparator struct {
	a, b   uint8
	lo, hi bool
}

// networks[n][trim] leaves rows [trim, n−trim) of an n-row tile holding
// their sorted values, for every n ≤ maxNet and trim ≤ (n−1)/2 — the only
// row ranges the rules read: the middle row(s) for the median, rows
// f … n−f−1 for the trimmed mean, all rows for Bulyan.
var networks = func() (nets [maxNet + 1][][]comparator) {
	for n := 1; n <= maxNet; n++ {
		for trim := 0; trim <= (n-1)/2; trim++ {
			nets[n] = append(nets[n], pruneNetwork(mergeExchange(n), n, trim))
		}
	}
	return nets
}()

// mergeExchange is Batcher's odd-even merge sorting network in the form
// that needs no power-of-two n (Knuth, TAOCP 5.2.2, Algorithm M).
func mergeExchange(n int) []comparator {
	var net []comparator
	top := 1
	for top*2 < n {
		top *= 2
	}
	for p := top; p > 0; p /= 2 {
		q, r, d := top, 0, p
		for d > 0 {
			for i := 0; i+d < n; i++ {
				if i&p == r {
					net = append(net, comparator{a: uint8(i), b: uint8(i + d), lo: true, hi: true})
				}
			}
			d, q, r = q-p, q/2, p
		}
	}
	return net
}

// pruneNetwork keeps, in place, what rows [trim, n−trim) depend on: walking
// backwards, a comparator output nobody reads later is dropped, and a
// comparator with a live output makes both its input rows live.
func pruneNetwork(net []comparator, n, trim int) []comparator {
	var live [maxNet]bool
	for r := trim; r < n-trim; r++ {
		live[r] = true
	}
	kept := len(net)
	for k := len(net) - 1; k >= 0; k-- {
		c := net[k]
		if c.lo, c.hi = live[c.a], live[c.b]; c.lo || c.hi {
			live[c.a], live[c.b] = true, true
			kept--
			net[kept] = c
		}
	}
	return net[kept:]
}

type tile [maxNet][tileW]float64

// run applies net to the first w coordinates of every row.
func (t *tile) run(net []comparator, w int) {
	for _, c := range net {
		a := t[c.a][:w]
		b := t[c.b][:w]
		switch {
		case c.lo && c.hi:
			for k, x := range a {
				y := b[k]
				a[k], b[k] = min(x, y), max(x, y)
			}
		case c.lo:
			for k, x := range a {
				a[k] = min(x, b[k])
			}
		default:
			for k, x := range a {
				b[k] = max(x, b[k])
			}
		}
	}
}

// sortedColumn gathers coordinate i of inputs into col and sorts it: the
// reference every network result is defined against.
func sortedColumn(col []float64, inputs []tensor.Vector, i int) []float64 {
	for j, v := range inputs {
		col[j] = v[i]
	}
	sort.Float64s(col)
	return col
}

// reduction is what a sorting rule does with one sorted column of n values.
// It reads entries [trim, n−trim) only, and is NaN when they all are.
type reduction struct {
	trim int
	// beta = 0 is the median. beta > 0 is the mean of the beta consecutive
	// entries with the smallest spread — the trimmed mean when that is all
	// n−2·trim of them, Bulyan's phase 2 when trim is 0.
	beta int
}

// medianOf is the median of n values: it reads the middle entry, or two.
func medianOf(n int) reduction { return reduction{trim: (n - 1) / 2} }

// of reduces one sorted column.
func (r reduction) of(sorted []float64) float64 {
	if r.beta > 0 {
		return r.windowMean(sorted)
	}
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return midpoint(sorted[n/2-1], sorted[n/2])
}

// midpoint is the even-count median of the two middle entries, halved
// before adding so it cannot overflow.
func midpoint(a, b float64) float64 { return a/2 + b/2 }

func (r reduction) windowMean(sorted []float64) float64 {
	xs := sorted[r.trim : len(sorted)-r.trim]
	best, bestSpread := 0, xs[r.beta-1]-xs[0]
	for lo := 1; lo+r.beta <= len(xs); lo++ {
		if s := xs[lo+r.beta-1] - xs[lo]; s < bestSpread {
			best, bestSpread = lo, s
		}
	}
	var s float64
	for _, x := range xs[best : best+r.beta] {
		s += x
	}
	return s / float64(r.beta)
}

// reduce is r.of on each of the first w columns of a tile whose len(col)
// rows the network has sorted; it returns the row it left the results in.
// The median is already a row (or the midpoint of two); a window gathers
// its column into col.
func (t *tile) reduce(r reduction, col []float64, w int) []float64 {
	n := len(col)
	mid := t[n/2][:w]
	switch {
	case r.beta > 0:
		for c := range mid {
			for k := r.trim; k < n-r.trim; k++ {
				col[k] = t[k][c]
			}
			mid[c] = r.windowMean(col)
		}
	case n%2 == 0:
		for c, below := range t[n/2-1][:w] {
			mid[c] = midpoint(below, mid[c])
		}
	}
	return mid
}

// reduceColumns writes dst[i] = r.of(column i of inputs, sorted ascending as
// sort.Float64s sorts) for i in [lo, hi). Every column is read before its
// output is written, so dst may alias one of the inputs.
//
// A network's rows hold the same multiset a sort produces, in the same
// order, and median5 its middle entry, except where the order is not
// determined by value: min/max put −0 before +0 (the sort keeps their input
// order) and turn both outputs NaN when either input is (the sort puts NaNs
// first) — and since every wanted row depends on every input, one NaN
// anywhere in a column reaches them all (not so with raw MINSD/MAXSD: see
// TestMedian5NeedsNaNExactMinMax). Signed zeros vanish in any sum or
// difference with a non-zero value, so a reduction that came out neither
// zero nor NaN saw neither case; one that did is recomputed on the reference
// column, which makes the output bit-identical to gather-and-sort.
func reduceColumns(dst tensor.Vector, inputs []tensor.Vector, lo, hi int, r reduction) {
	if len(inputs) == 5 && r == medianOf(5) {
		median5Columns(dst, inputs, lo, hi)
	} else {
		reduceTiles(dst, inputs, lo, hi, r)
	}
}

// median5 is the median of five by ten min/max: f and g are the middle two
// of a, b, c, d (in either order), and the median is that of e, f and g.
func median5(a, b, c, d, e float64) float64 {
	f := max(min(a, b), min(c, d))
	g := min(max(a, b), max(c, d))
	return max(min(e, f), min(max(e, f), g))
}

// median5Columns is reduceColumns for the median of five (the paper's q = 5).
// With AVX2 the kernel stops at a block of four with a NaN input or a zero
// result, which median5Loop takes, as it takes the last hi−lo mod 4
// coordinates. Without NaNs VMINPD/VMAXPD differ from min/max only in which
// of two zeros they return, which cannot change a non-zero result, so every
// block the kernel stores has median5's bits. Each block is loaded before
// it is stored: dst may still alias an input.
func median5Columns(dst tensor.Vector, inputs []tensor.Vector, lo, hi int) {
	for useAVX2 && hi-lo >= 4 {
		w := min(hi-lo, avx2Span) &^ 3
		a, b, c, d, e := inputs[0][lo:lo+w], inputs[1][lo:lo+w], inputs[2][lo:lo+w], inputs[3][lo:lo+w], inputs[4][lo:lo+w]
		done := median5AVX2(dst[lo:lo+w], a, b, c, d, e)
		if done < w {
			median5Loop(dst, inputs, lo+done, lo+done+4)
			done += 4
		}
		lo += done
	}
	median5Loop(dst, inputs, lo, hi)
}

// median5Loop is median5Columns in Go.
func median5Loop(dst tensor.Vector, inputs []tensor.Vector, lo, hi int) {
	out := dst[lo:hi]
	a, b, c, d, e := inputs[0][lo:hi], inputs[1][lo:hi], inputs[2][lo:hi], inputs[3][lo:hi], inputs[4][lo:hi]
	var col [5]float64
	for i := range out {
		x := median5(a[i], b[i], c[i], d[i], e[i])
		if x == 0 || x != x {
			x = medianOf(5).of(sortedColumn(col[:], inputs, lo+i))
		}
		out[i] = x
	}
}

// reduceTiles is reduceColumns through the networks, in its own 32 KiB frame.
func reduceTiles(dst tensor.Vector, inputs []tensor.Vector, lo, hi int, r reduction) {
	n := len(inputs)
	if n > maxNet {
		col := make([]float64, n)
		for i := lo; i < hi; i++ {
			dst[i] = r.of(sortedColumn(col, inputs, i))
		}
		return
	}
	var buf [maxNet]float64
	col := buf[:n]
	net := networks[n][r.trim]
	var t tile
	for ; lo < hi; lo += tileW {
		w := min(tileW, hi-lo)
		for j, v := range inputs {
			copy(t[j][:w], v[lo:lo+w])
		}
		t.run(net, w)
		out := dst[lo : lo+w]
		for c, x := range t.reduce(r, col, w) {
			if x == 0 || x != x {
				x = r.of(sortedColumn(col, inputs, lo+c))
			}
			out[c] = x
		}
	}
}

// reduceAllColumns is reduceColumns over every coordinate of dst, in
// parallel coordinate chunks when there are workers for them. Each chunk
// owns its coordinate range, so the output is identical at any parallelism.
func reduceAllColumns(dst tensor.Vector, inputs []tensor.Vector, r reduction) {
	d := len(dst)
	if parallel.Workers() == 1 || d <= coordGrain {
		reduceColumns(dst, inputs, 0, d, r) // serial: no region, no closure
		return
	}
	parallel.For(d, coordGrain, func(lo, hi int) {
		reduceColumns(dst, inputs, lo, hi, r)
	})
}
