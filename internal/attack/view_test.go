package attack

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// filled is a vector of n coordinates, all x.
func filled(n int, x float64) tensor.Vector {
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = x
	}
	return v
}

// holds reports whether every coordinate of every vector is exactly x.
func holds(vs []tensor.Vector, x float64) bool {
	for _, v := range vs {
		for _, y := range v {
			if math.Float64bits(y) != math.Float64bits(x) {
				return false
			}
		}
	}
	return true
}

// TestSharedViewCloseReturnsTheWindow: a step leaving the window is left to
// the garbage collector, so a snapshot of it taken earlier keeps its exact
// values; Close hands back every copy still in the window, and only those.
func TestSharedViewCloseReturnsTheWindow(t *testing.T) {
	const n = 1039
	tensor.Put(make(tensor.Vector, n))
	base := tensor.Outstanding()[n]
	v := NewSharedView(1, 1)
	v.Publish(0, filled(n, 7))
	evicted := v.Snapshot(0).Honest()
	for step := 1; step <= sharedViewWindow+1; step++ {
		v.Publish(step, filled(n, float64(step)))
	}
	if got := v.Snapshot(0); len(got.Honest()) != 0 {
		t.Fatalf("step 0 left the window but a new snapshot still shows %d vectors", len(got.Honest()))
	}
	if len(evicted) != 1 || !holds(evicted, 7) {
		t.Fatal("a snapshot changed when its step left the window")
	}
	v.Close()
	if moved := tensor.Outstanding()[n] - base; moved != 1 || !holds(evicted, 7) {
		t.Fatalf("after Close %d copies are out, want the one that left the window", moved)
	}
	if got := v.Snapshot(sharedViewWindow + 1); len(got.Honest()) != 0 {
		t.Fatalf("a closed view still shows %d vectors", len(got.Honest()))
	}
	var none *SharedView
	none.Close() // closing the view of a run without omniscient attacks
}
