package attack

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// quietPool makes the free list deterministic for one test: one processor
// (a sync.Pool's private slot belongs to a processor) and no garbage
// collection (two cycles empty a pool). The race detector's pools still
// drop a quarter of all Puts; recycled reads the poison there instead.
func quietPool(t *testing.T) {
	t.Helper()
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// recycled reports whether every one of vs — vectors of one length, which no
// other test uses — was handed to tensor.Put: in a race build Put poisoned
// them, otherwise the free list hands exactly them back (and this call takes
// them out again). Needs quietPool.
func recycled(vs ...tensor.Vector) bool {
	back := make(map[*float64]bool, len(vs))
	for range vs {
		back[&tensor.Get(len(vs[0]))[0]] = true
	}
	for _, v := range vs {
		if raceEnabled && !math.IsNaN(v[0]) || !raceEnabled && !back[&v[0]] {
			return false
		}
	}
	return true
}

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
	quietPool(t)
	const n = 1039
	v := NewSharedView(1, 1)
	v.Publish(0, filled(n, 7))
	evicted := v.Snapshot(0).Honest()
	var window []tensor.Vector
	for step := 1; step <= sharedViewWindow+1; step++ {
		v.Publish(step, filled(n, float64(step)))
	}
	for step := 1; step <= sharedViewWindow+1; step++ {
		window = append(window, v.Snapshot(step).Honest()...)
	}
	if got := v.Snapshot(0); len(got.Honest()) != 0 {
		t.Fatalf("step 0 left the window but a new snapshot still shows %d vectors", len(got.Honest()))
	}
	if len(evicted) != 1 || !holds(evicted, 7) {
		t.Fatal("a snapshot changed when its step left the window")
	}
	v.Close()
	if !recycled(window...) {
		t.Fatal("Close did not hand back every copy in the window")
	}
	if g := tensor.Get(n); !holds(evicted, 7) || !raceEnabled && &g[0] == &evicted[0][0] {
		t.Fatal("Close handed back a copy that had already left the window")
	}
	if got := v.Snapshot(sharedViewWindow + 1); len(got.Honest()) != 0 {
		t.Fatalf("a closed view still shows %d vectors", len(got.Honest()))
	}
	var none *SharedView
	none.Close() // closing the view of a run without omniscient attacks
}
