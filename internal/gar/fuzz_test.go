package gar

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// Native fuzz targets for the aggregation kernels. The contract under
// arbitrary input shapes and values:
//
//   - malformed shapes (empty input sets, mismatched or below-precondition
//     cardinalities, mismatched dimensions) must ERROR — never panic;
//   - well-formed finite inputs of moderate magnitude must produce a
//     finite output of the right dimension — non-finite values may only
//     ever *propagate* from non-finite inputs, never appear spontaneously.
//
// NaN/Inf *payload* rejection is deliberately not the kernels' job: honest
// nodes sanitise at the message boundary (transport.Collector.Validator /
// core's rejectPayload), and the vanilla baseline's mean must faithfully
// remain poisonable (Figure 4). The fuzz targets pin down that split.

// decodeFuzzInputs turns raw fuzz bytes into a vector set: header bytes
// pick n, d, the declared f and a shape-corruption flag, the rest feed
// float64 coordinates (bit patterns, so NaN/±Inf arise naturally).
func decodeFuzzInputs(data []byte) (inputs []tensor.Vector, declaredF int, mismatched bool) {
	if len(data) < 4 {
		return nil, 0, false
	}
	n := int(data[0])%10 + 1
	d := int(data[1]) % 8
	declaredF = int(data[2]) % 4
	shapeCorrupt := data[3]%4 == 0
	payload := data[4:]
	word := func(k int) float64 {
		if len(payload) < 8 {
			return float64(k)
		}
		off := (k * 8) % (len(payload) - 7)
		return math.Float64frombits(binary.LittleEndian.Uint64(payload[off : off+8]))
	}
	inputs = make([]tensor.Vector, n)
	k := 0
	for i := range inputs {
		di := d
		if shapeCorrupt && i == n-1 && n > 1 {
			di = d + 1 // one vector with a mismatched dimension
			mismatched = true
		}
		inputs[i] = make(tensor.Vector, di)
		for j := range inputs[i] {
			inputs[i][j] = word(k)
			k++
		}
	}
	return inputs, declaredF, mismatched
}

func FuzzAggregateRules(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1})
	f.Add([]byte{5, 0, 0, 0}) // zero-dimension vectors
	f.Add([]byte{9, 4, 2, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	nan := make([]byte, 4+16)
	copy(nan, []byte{7, 2, 1, 1})
	binary.LittleEndian.PutUint64(nan[4:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[12:], math.Float64bits(math.Inf(1)))
	f.Add(nan)
	mism := []byte{4, 3, 1, 0} // data[3]%4==0 → shape corruption
	f.Add(mism)

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs, declaredF, mismatched := decodeFuzzInputs(data)
		finiteModerate := len(inputs) > 0
		for _, v := range inputs {
			for _, x := range v {
				if !(math.Abs(x) < 1e100) { // false for NaN/±Inf too
					finiteModerate = false
				}
			}
		}
		for _, name := range RuleNames() {
			rule, err := FromName(name, declaredF)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out, err := rule.Aggregate(inputs) // must never panic
			if mismatched && err == nil {
				t.Fatalf("%s accepted mismatched dimensions", name)
			}
			if err != nil {
				continue
			}
			if len(out) != len(inputs[0]) {
				t.Fatalf("%s: output dimension %d, want %d", name, len(out), len(inputs[0]))
			}
			if finiteModerate && !tensor.IsFinite(out) {
				t.Fatalf("%s: spontaneous non-finite output from finite inputs %v", name, inputs)
			}
		}
	})
}

// FuzzMedianInto drives the in-place median kernel the median streamer
// folds through, with an independently sized destination.
func FuzzMedianInto(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1}, 2)
	f.Add([]byte{4, 4, 0, 1}, 0)
	f.Fuzz(func(t *testing.T, data []byte, dstLen int) {
		inputs, _, _ := decodeFuzzInputs(data)
		if dstLen < 0 || dstLen > 64 {
			return
		}
		dst := make(tensor.Vector, dstLen)
		// A wrong dst size must be reported, never written out of bounds;
		// a matching size must fill dst with per-coordinate medians.
		err := MedianInto(dst, inputs)
		if err != nil {
			return
		}
		if len(inputs) == 0 || dstLen != len(inputs[0]) {
			t.Fatalf("MedianInto accepted inconsistent sizes: dst=%d inputs=%dx?",
				dstLen, len(inputs))
		}
	})
}
