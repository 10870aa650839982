package gar

import (
	"encoding/binary"
	"math"
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

func checkColumnsMatchSort(t *testing.T, inputs []tensor.Vector) {
	t.Helper()
	d := len(inputs[0])
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
				t.Fatalf("n=%d %+v column %v: got %v (%#x), sort reference %v (%#x)", len(inputs), r, col,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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
	f.Add(bitsFromColumn(nan, 1, 2, 3, 4))                                             // one NaN, trimmed away by f ≥ 1
	f.Add(bitsFromColumn(nan, otherNaN, 1, otherNaN))                                  // NaN payloads
	f.Add(bitsFromColumn(1, inf, nan, -inf, 0, 7, -7))                                 // everything at once
	f.Add(bitsFromColumn(5e-324, 0, 5e-324, 0))                                        // halves that underflow to zero
	f.Add(bitsFromColumn(17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1))   // n = 17: reference only
	f.Add(bitsFromColumn(16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, negZero, 0, 4, 3, 2)) // n = 16: largest network
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
func TestMedianIntoAliasedDst(t *testing.T) {
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
