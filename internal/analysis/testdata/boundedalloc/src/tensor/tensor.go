// Package tensor is the fixture's stand-in for the vector free list.
package tensor

// Get returns a vector of length n from the free list.
func Get(n int) []float64 { return make([]float64, n) }
