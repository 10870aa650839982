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
	v := NewSharedView(1, 1, 1)
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

// TestSharedViewRetiresAStepOnce: a step goes back to the free list when the
// last of its crafters passes it — its honest copies and crafted vector, with
// those of every earlier step still held, exactly once — and a Publish into
// a retired step copies nothing. A crafter that never passes a step leaves
// it to the window and Close, as a view without passes does.
func TestSharedViewRetiresAStepOnce(t *testing.T) {
	const n = 1049
	tensor.Put(make(tensor.Vector, n))
	base := tensor.Outstanding()[n]
	moved := func() int64 { return tensor.Outstanding()[n] - base }
	a := ALIE{Z: 1}
	v := NewSharedView(1, 2, 2) // crafters A and B
	var crafted []tensor.Vector
	for step := 0; step < 3; step++ {
		v.Publish(step, filled(n, 1))
		v.Publish(step, filled(n, 3))
		c := v.Craft(a, 1, step)
		if c == nil {
			t.Fatalf("step %d: nothing crafted from two published vectors", step)
		}
		crafted = append(crafted, tensor.Clone(c))
	}
	if moved() != 9 {
		t.Fatalf("three steps of two copies and one craft moved the ledger by %d, want 9", moved())
	}

	v.Pass(0) // A
	v.Pass(1) // A
	if moved() != 9 {
		t.Fatalf("steps only A passed handed back %d vectors, want none", 9-moved())
	}
	v.Pass(1) // B, the last crafter of step 1: steps 0 and 1 go back
	if moved() != 3 {
		t.Fatalf("after the last pass of step 1 the ledger stands at %d, want step 2's 3", moved())
	}
	v.Pass(1)
	v.Pass(0)
	if moved() != 3 {
		t.Fatalf("passing retired steps again moved the ledger to %d, want 3", moved())
	}
	v.Publish(1, filled(n, 5))
	if moved() != 3 || len(v.Snapshot(1).Honest()) != 0 {
		t.Fatalf("a Publish into a retired step took a copy (ledger %d)", moved())
	}
	if v.Craft(a, 1, 1) != nil {
		t.Fatal("a retired step still crafts")
	}

	// B stops passing: step 2 stays with the window. Once it leaves the
	// window it goes to the garbage collector, values intact.
	v.Pass(2) // A
	held := v.Craft(a, 1, 2)
	for step := 3; step <= 2+sharedViewWindow+1; step++ {
		v.Publish(step, filled(n, float64(step)))
	}
	if got := v.Snapshot(2); len(got.Honest()) != 0 {
		t.Fatalf("step 2 left the window but a snapshot still shows %d vectors", len(got.Honest()))
	}
	if !sameBits([]tensor.Vector{held}, crafted[2:]) {
		t.Fatal("the crafted vector of a step that left the window changed")
	}
	v.Close()
	if moved() != 3 {
		t.Fatalf("after Close %d vectors are out, want the 3 of the step that left the window", moved())
	}
}
