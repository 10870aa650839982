package gar

import (
	"fmt"

	"repro/internal/tensor"
)

// In-place aggregation kernels: the cores behind Mean and Median and their
// streamers (stream.go), which write each folded shard into the streamer's
// pooled output.
//
// Both kernels are coordinate-independent: coordinate i of the output
// depends only on coordinate i of the inputs, and within one coordinate the
// arithmetic order is fixed (input order for the mean, sorted order for the
// median — see columns.go). Splitting the coordinate range into chunks
// therefore produces bit-identical results at any parallelism — including
// fully serial.

// Coordinate-chunk grains: one chunk is sized so its compute dominates the
// dispatch cost of a pool chunk (~1µs). The sorting rules (median, trimmed
// mean, Bulyan phase 2) pay a small sort per coordinate, the mean only n
// additions, hence the larger mean grain.
const (
	coordGrain = 1 << 10
	meanGrain  = 1 << 12
)

// MeanChunkInto writes coordinates [lo, hi) of the arithmetic mean of inputs
// into dst. Inputs must be validated (same dimension, dst matching); the
// coordinate range must be owned by the caller's chunk.
func MeanChunkInto(dst tensor.Vector, inputs []tensor.Vector, lo, hi int) {
	inv := 1 / float64(len(inputs))
	first := inputs[0]
	for i := lo; i < hi; i++ {
		dst[i] = first[i]
	}
	for _, v := range inputs[1:] {
		for i := lo; i < hi; i++ {
			dst[i] += v[i]
		}
	}
	for i := lo; i < hi; i++ {
		dst[i] *= inv
	}
}

// MedianInto writes the coordinate-wise median of inputs into dst, which
// must match their dimension. Large dimensions are processed in parallel
// coordinate chunks (bit-identical to serial).
func MedianInto(dst tensor.Vector, inputs []tensor.Vector) error {
	if err := checkInputs(inputs); err != nil {
		return err
	}
	if len(dst) != len(inputs[0]) {
		return fmt.Errorf("gar: destination has dimension %d, inputs have %d",
			len(dst), len(inputs[0]))
	}
	reduceAllColumns(dst, inputs, medianOf(len(inputs)))
	return nil
}
