// Package transport exercises BoundedAlloc in frame-decoding paths:
// wire-derived sizes must be bounds-checked before allocation.
package transport

import (
	"encoding/binary"

	"tensor"
)

const maxDim = 1 << 20

// DecodeVec allocates whatever the header claims — the 15-byte frame
// that reserves 512 MiB on the receiver's behalf.
func DecodeVec(payload []byte) []float64 {
	n := int(binary.BigEndian.Uint32(payload))
	return make([]float64, n) // want "without a preceding bound check"
}

// DecodeVecBounded checks the claimed dimension first.
func DecodeVecBounded(payload []byte) ([]float64, bool) {
	n := int(binary.BigEndian.Uint32(payload))
	if n < 0 || n > maxDim {
		return nil, false
	}
	return make([]float64, n), true
}

// DecodePooled takes whatever the header claims from the free list —
// the same reservation as DecodeVec's, by another name.
func DecodePooled(payload []byte) []float64 {
	n := int(binary.BigEndian.Uint32(payload))
	return tensor.Get(n) // want "tensor.Get sized by \"n\" without a preceding bound check"
}

// DecodePooledBounded checks the claimed dimension first.
func DecodePooledBounded(payload []byte) ([]float64, bool) {
	n := int(binary.BigEndian.Uint32(payload))
	if n < 0 || n > maxDim {
		return nil, false
	}
	return tensor.Get(n), true
}

// DecodeInto sizes by an in-memory value — already paid for.
func DecodeInto(payload []byte) []byte {
	out := make([]byte, len(payload))
	copy(out, payload)
	return out
}

// DecodeTrusted documents that its caller validated n.
func DecodeTrusted(payload []byte, n int) []float64 {
	//lint:allow-unbounded fixture: n is validated by the caller
	return make([]float64, n)
}

// Stage is not a decode path — no wire input — so its unchecked size
// is out of scope.
func Stage(n int) []float64 {
	return make([]float64, n)
}
