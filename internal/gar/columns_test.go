package gar

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"repro/internal/tensor"
)

// TestNetworksZeroOne is the zero-one principle applied to every generated
// network: a comparator network leaves row r holding the r-th smallest input
// on all inputs iff it does on all 2ⁿ inputs of zeros and ones.
func TestNetworksZeroOne(t *testing.T) {
	for n := 2; n <= maxNet; n++ {
		for trim, net := range networks[n] {
			for bits := 0; bits < 1<<n; bits++ {
				var tl tile
				ones := 0
				for r := 0; r < n; r++ {
					tl[r][0] = float64(bits >> r & 1)
					ones += bits >> r & 1
				}
				tl.run(net, 1)
				for r := trim; r < n-trim; r++ {
					want := 0.0
					if r >= n-ones {
						want = 1
					}
					if tl[r][0] != want {
						t.Fatalf("n=%d trim=%d input %0*b: row %d holds %v, want %v",
							n, trim, n, bits, r, tl[r][0], want)
					}
				}
			}
		}
	}
}

// TestNetworksArePruned: asking for fewer rows never costs more comparators,
// and the median of the paper's q = 5 needs fewer than the full sort.
func TestNetworksArePruned(t *testing.T) {
	for n := 2; n <= maxNet; n++ {
		for trim := 1; trim < len(networks[n]); trim++ {
			if len(networks[n][trim]) > len(networks[n][trim-1]) {
				t.Errorf("n=%d: trim %d has %d comparators, trim %d only %d",
					n, trim, len(networks[n][trim]), trim-1, len(networks[n][trim-1]))
			}
		}
	}
	if full, med := len(networks[5][0]), len(networks[5][2]); med >= full {
		t.Errorf("median-of-5 network has %d comparators, full sort %d", med, full)
	}
}

// referenceReduce is gather-and-sort on every coordinate: what the rules ran
// before the networks, and what reduceColumns must reproduce to the bit.
func referenceReduce(inputs []tensor.Vector, r reduction) tensor.Vector {
	out := make(tensor.Vector, len(inputs[0]))
	col := make([]float64, len(inputs))
	for i := range out {
		out[i] = r.of(sortedColumn(col, inputs, i))
	}
	return out
}

// reductionsFor lists every reduction the rules can ask of n inputs: the
// median, each legal trimmed mean, and each Bulyan window.
func reductionsFor(n int) []reduction {
	rs := []reduction{{trim: (n - 1) / 2}}
	for f := 0; 2*f+1 <= n; f++ {
		rs = append(rs, reduction{trim: f, beta: n - 2*f})
	}
	for beta := 1; beta < n; beta++ {
		rs = append(rs, reduction{beta: beta})
	}
	return rs
}

// checkColumnsMatchSort holds every reduction of inputs to gather-and-sort,
// on each of the bodies the kernels can take on this CPU.
func checkColumnsMatchSort(t *testing.T, inputs []tensor.Vector) {
	t.Helper()
	d := len(inputs[0])
	for _, avx2 := range kernelSides() {
		defer setAVX2(avx2)()
		for _, r := range reductionsFor(len(inputs)) {
			want := referenceReduce(inputs, r)
			got := make(tensor.Vector, d)
			reduceColumns(got, inputs, 0, d, r)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					col := make([]float64, len(inputs))
					for j, v := range inputs {
						col[j] = v[i]
					}
					t.Fatalf("avx2=%v n=%d %+v column %v: got %v (%#x), sort reference %v (%#x)", avx2, len(inputs), r, col,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// columnsFromBits lays raw 64-bit patterns out as n inputs of equal
// dimension (n from the first byte, in [1, 20]); leftover bytes are dropped.
func columnsFromBits(data []byte) []tensor.Vector {
	if len(data) < 1 {
		return nil
	}
	n := int(data[0])%20 + 1
	words := (len(data) - 1) / 8
	d := words / n
	if d == 0 {
		return nil
	}
	inputs := make([]tensor.Vector, n)
	for j := range inputs {
		inputs[j] = make(tensor.Vector, d)
		for i := range inputs[j] {
			inputs[j][i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*(i*n+j):]))
		}
	}
	return inputs
}

// bitsFromColumn is columnsFromBits' inverse for one column.
func bitsFromColumn(col ...float64) []byte {
	data := []byte{byte(len(col) - 1)}
	for _, x := range col {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
	}
	return data
}

// FuzzColumnsMatchSort: on arbitrary bit patterns — signed zeros, NaNs of any
// payload, infinities, denormals — every reduction of the network kernel
// equals the gather-and-sort reference bit for bit, for n on both sides of
// maxNet.
func FuzzColumnsMatchSort(f *testing.F) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	otherNaN := math.Float64frombits(math.Float64bits(nan) | 0xbeef)
	f.Add(bitsFromColumn(3, 1, 2, 5, 4))
	f.Add(bitsFromColumn(0, negZero, 0, negZero, 1))                                   // ±0 tie around the median
	f.Add(bitsFromColumn(negZero, 0, negZero, 0))                                      // even n, every entry a zero
	f.Add(bitsFromColumn(-1, negZero, 0, 0, negZero))                                  // ±0 tie at the trim boundary
	f.Add(bitsFromColumn(2, 2, 2, 1, 1, 3, 3))                                         // duplicated values
	f.Add(bitsFromColumn(-inf, inf, 1, -inf, inf))                                     // ±Inf: Inf−Inf spreads and sums
	f.Add(bitsFromColumn(nan, 1, 2, 3, 4))                                             // one NaN, trimmed away by f ≥ 1: the median is 2, not NaN
	f.Add(bitsFromColumn(nan, 3, 1, 2, 4))                                             // the same column, an order raw MINSD/MAXSD would make 3
	f.Add(bitsFromColumn(nan, otherNaN, 1, otherNaN))                                  // NaN payloads
	f.Add(bitsFromColumn(1, inf, nan, -inf, 0, 7, -7))                                 // everything at once
	f.Add(bitsFromColumn(5e-324, 0, 5e-324, 0))                                        // halves that underflow to zero
	f.Add(bitsFromColumn(17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1))   // n = 17: reference only
	f.Add(bitsFromColumn(16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, negZero, 0, 4, 3, 2)) // n = 16: largest network
	// Five inputs, nine columns: AVX2 blocks with a NaN input, with a zero
	// median and with neither, then a column of tail.
	wide := []byte{4}
	for c := range 9 {
		for j := range 5 {
			x := float64((c*3+j*7)%11) - 5
			switch {
			case c == 1 && j == 3:
				x = otherNaN
			case c == 6:
				x = []float64{0, negZero, 1, -1, 0}[j]
			}
			wide = binary.LittleEndian.AppendUint64(wide, math.Float64bits(x))
		}
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if inputs := columnsFromBits(data); inputs != nil {
			checkColumnsMatchSort(t, inputs)
		}
	})
}

// TestColumnsMatchSortAcrossTiles: dimensions straddling the tile width, with
// zeros and NaNs sprinkled in so tiles mix network and reference columns.
func TestColumnsMatchSortAcrossTiles(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, n := range []int{1, 2, 5, 6, 13, 16, 17} {
		for _, d := range []int{1, tileW - 1, tileW, tileW + 1, 3*tileW + 17} {
			inputs := make([]tensor.Vector, n)
			for j := range inputs {
				inputs[j] = rng.NormVec(make([]float64, d), 0, 1)
				for i := j; i < d; i += 37 {
					inputs[j][i] = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1)}[(i+j)%4]
				}
			}
			checkColumnsMatchSort(t, inputs)
		}
	}
}

// TestMedianIntoAliasedDst: the kernel copies each tile out before writing
// dst, so dst may be one of the inputs — including on reference columns.
func TestMedianIntoAliasedDst(t *testing.T) { onEachSide(t, testMedianIntoAliasedDst) }

func testMedianIntoAliasedDst(t *testing.T) {
	rng := tensor.NewRNG(11)
	inputs := make([]tensor.Vector, 5)
	for j := range inputs {
		inputs[j] = rng.NormVec(make([]float64, 2*tileW+3), 0, 1)
		inputs[j][tileW] = 0 // a column that falls back
	}
	want, err := Median{}.Aggregate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := MedianInto(inputs[2], inputs); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(inputs[2][i]) != math.Float64bits(want[i]) {
			t.Fatalf("coordinate %d: aliased %v, fresh %v", i, inputs[2][i], want[i])
		}
	}
}

// specialValues are the bit patterns the min/max kernels must order exactly
// as sort.Float64s does: NaNs of both signs with payloads, signed zeros,
// infinities, subnormals, and a normal that appears twice (duplicates).
func specialValues() []float64 {
	bits := []uint64{
		0x7ff8000000000001, 0xfff800000000beef, // NaNs
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x0000000000000001, 0x800fffffffffffff, // smallest subnormal, largest negative subnormal
		0x3ff0000000000000, 0xc000000000000000, // 1, −2
	}
	vs := make([]float64, len(bits))
	for i, b := range bits {
		vs[i] = math.Float64frombits(b)
	}
	return vs
}

// TestMedian5MatchesSortOnSpecials: every column of five drawn from the
// specials table (10⁵ columns) through median5Columns equals gather-and-sort
// bit for bit, as does every other reduction of five.
func TestMedian5MatchesSortOnSpecials(t *testing.T) {
	sp := specialValues()
	inputs := make([]tensor.Vector, 5)
	for j := range inputs {
		inputs[j] = make(tensor.Vector, 0, 100000)
	}
	for k := 0; k < 100000; k++ {
		for j, q := 0, k; j < 5; j, q = j+1, q/len(sp) {
			inputs[j] = append(inputs[j], sp[q%len(sp)])
		}
	}
	checkColumnsMatchSort(t, inputs)
}

// TestMedian5ZeroOne is the zero-one principle for median5: a min/max
// formula returns the median of every input iff it does on all 2⁵ inputs of
// zeros and ones.
func TestMedian5ZeroOne(t *testing.T) {
	for bits := 0; bits < 1<<5; bits++ {
		var x [5]float64
		ones := 0
		for r := range x {
			x[r] = float64(bits >> r & 1)
			ones += bits >> r & 1
		}
		want := 0.0
		if ones >= 3 {
			want = 1
		}
		if got := median5(x[0], x[1], x[2], x[3], x[4]); got != want {
			t.Fatalf("input %05b: median5 = %v, want %v", bits, got, want)
		}
	}
	// The same for median5Columns, the 2⁵ inputs as 32 columns, with 1 and
	// 2 for 0 and 1: a zero result would send its block to median5.
	onEachSide(t, func(t *testing.T) {
		inputs := make([]tensor.Vector, 5)
		for r := range inputs {
			inputs[r] = make(tensor.Vector, 1<<5)
			for in := range inputs[r] {
				inputs[r][in] = float64(1 + in>>r&1)
			}
		}
		got := make(tensor.Vector, 1<<5)
		median5Columns(got, inputs, 0, len(got))
		for in, x := range got {
			if want := float64(1 + min(bits.OnesCount(uint(in))/3, 1)); x != want {
				t.Fatalf("input %05b: median %v, want %v", in, x, want)
			}
		}
	})
}

// TestMedian5ColumnsAliasAndRanges: median5Columns writes [lo, hi) only and
// reads each column before writing it, so dst may be any of the five inputs
// — at every length 0–11 (no, part of, one or two AVX2 blocks) and longer,
// next to and across columns that fall back.
func TestMedian5ColumnsAliasAndRanges(t *testing.T) { onEachSide(t, testMedian5ColumnsAliasAndRanges) }

func testMedian5ColumnsAliasAndRanges(t *testing.T) {
	rng := tensor.NewRNG(13)
	const d = 300
	fresh := func() []tensor.Vector {
		inputs := make([]tensor.Vector, 5)
		for j := range inputs {
			inputs[j] = rng.NormVec(make(tensor.Vector, d), 0, 1)
			inputs[j][17+j] = 0 // columns that fall back
			inputs[j][101] = math.NaN()
		}
		return inputs
	}
	ranges := [][2]int{{0, d}, {17, 18}, {5, 131}, {100, 102}, {d - 3, d}}
	for n := 0; n <= 11; n++ {
		ranges = append(ranges, [2]int{0, n}, [2]int{37, 37 + n}, [2]int{99, 99 + n}, [2]int{d - n, d})
	}
	for alias := 0; alias < 5; alias++ {
		for _, rg := range ranges {
			inputs := fresh()
			want := referenceReduce(inputs, medianOf(5))
			before := append(tensor.Vector(nil), inputs[alias]...)
			lo, hi := rg[0], rg[1]
			reduceColumns(inputs[alias], inputs, lo, hi, medianOf(5))
			for i, x := range inputs[alias] {
				w := before[i]
				if lo <= i && i < hi {
					w = want[i]
				}
				if math.Float64bits(x) != math.Float64bits(w) {
					t.Fatalf("dst = input %d, range [%d, %d), coordinate %d: got %v, want %v", alias, lo, hi, i, x, w)
				}
			}
		}
	}
}

// TestMedian5NeedsNaNExactMinMax pins why median5 uses Go's min/max and not
// raw MINSD/MAXSD (which return the second operand when either is NaN): with
// the raw ones some order of {NaN, 1, 2, 3, 4} comes out finite and
// non-zero, so the fallback never fires and the result differs from the
// sort's 2. With the builtins every order is NaN and falls back.
func TestMedian5NeedsNaNExactMinMax(t *testing.T) {
	rawMin := func(x, y float64) float64 {
		if x < y {
			return x
		}
		return y
	}
	rawMax := func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	}
	rawMedian5 := func(a, b, c, d, e float64) float64 {
		f := rawMax(rawMin(a, b), rawMin(c, d))
		g := rawMin(rawMax(a, b), rawMax(c, d))
		return rawMax(rawMin(e, f), rawMin(rawMax(e, f), g))
	}
	col := []float64{math.NaN(), 1, 2, 3, 4}
	escaped := 0
	var permute func(k int)
	permute = func(k int) {
		if k == len(col) {
			if x := median5(col[0], col[1], col[2], col[3], col[4]); x == x {
				t.Fatalf("median5%v = %v, want NaN", col, x)
			}
			if x := rawMedian5(col[0], col[1], col[2], col[3], col[4]); x == x && x != 0 && x != 2 {
				escaped++
			}
			return
		}
		for i := k; i < len(col); i++ {
			col[k], col[i] = col[i], col[k]
			permute(k + 1)
			col[k], col[i] = col[i], col[k]
		}
	}
	permute(0)
	if escaped == 0 {
		t.Fatal("raw MINSD/MAXSD semantics never escaped the fallback; the pin is vacuous")
	}
	// VMINPD/VMAXPD have the raw semantics, so the AVX2 kernel must send a
	// block with a NaN input to median5: every order of {NaN, 1, 2, 3, 4},
	// one column each, comes out 2 on both bodies.
	inputs := make([]tensor.Vector, 5)
	permute = func(k int) {
		if k == len(col) {
			for j, x := range col {
				inputs[j] = append(inputs[j], x)
			}
			return
		}
		for i := k; i < len(col); i++ {
			col[k], col[i] = col[i], col[k]
			permute(k + 1)
			col[k], col[i] = col[i], col[k]
		}
	}
	col = []float64{math.NaN(), 1, 2, 3, 4}
	permute(0)
	onEachSide(t, func(t *testing.T) {
		got := make(tensor.Vector, len(inputs[0]))
		reduceColumns(got, inputs, 0, len(got), medianOf(5))
		for i, x := range got {
			if x != 2 {
				t.Fatalf("median of column %d, {%v, %v, %v, %v, %v}, = %v, want 2",
					i, inputs[0][i], inputs[1][i], inputs[2][i], inputs[3][i], inputs[4][i], x)
			}
		}
	})
}

// TestSortingStreamersAllocateNoScratch: the tile is a stack array, so a
// fold allocates no more than it did when the rules gathered into a heap
// column (streamer, output vector, range entry, and for the trimmed mean the
// parallel region) — measured at the parent of the kernel: 4 and 7.
func TestSortingStreamersAllocateNoScratch(t *testing.T) {
	withWorkers(t, 1)
	const d = 4 * coordGrain
	inputs := parInputs(13, d)
	for _, tc := range []struct {
		rule StreamingRule
		max  float64
	}{{Median{}, 4}, {TrimmedMean{F: 5}, 7}} {
		allocs := testing.AllocsPerRun(10, func() {
			st := tc.rule.NewStreamer(d)
			if err := st.Fold(0, d, inputs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: one fold allocated %.0f times, want ≤ %.0f", tc.rule.Name(), allocs, tc.max)
		}
	}
}
