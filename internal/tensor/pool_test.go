package tensor

import (
	"math"
	"testing"
)

// Lengths no other test of this package uses, so that what the class table
// says about them is this file's doing alone.
const (
	neverPutLen = 7001
	roundLen    = 7002
)

// putThenGet returns v to the free list and takes a vector of the same
// class back until that vector is v's backing array again. One round trip
// suffices except when sync.Pool declines to keep the vector (it drops a
// quarter of all Puts under the race detector) or the goroutine changed
// processor in between (a pool's private slot is per processor).
func putThenGet(t *testing.T, v Vector) Vector {
	t.Helper()
	base := &v[:1][0]
	for try := 0; try < 200; try++ {
		Put(v)
		got := Get(cap(v))
		if &got[0] == base {
			return got
		}
	}
	t.Fatalf("200 Put/Get round trips at length %d never returned the vector that was Put", cap(v))
	return nil
}

func TestGetOfNeverPutLengthAllocatesAndCreatesNoClass(t *testing.T) {
	a, b := Get(neverPutLen), Get(neverPutLen)
	if len(a) != neverPutLen || len(b) != neverPutLen || &a[0] == &b[0] {
		t.Fatalf("Get(%d) = len %d and len %d, same array %v: want two fresh vectors",
			neverPutLen, len(a), len(b), &a[0] == &b[0])
	}
	if class(neverPutLen) != nil {
		t.Fatalf("Get(%d) created a size class; only Put may", neverPutLen)
	}
	if got := Get(0); len(got) != 0 {
		t.Fatalf("Get(0) has length %d", len(got))
	}
}

func TestPutThenGetReturnsTheBackingArrayAtFullLength(t *testing.T) {
	v := make(Vector, roundLen)
	for _, cut := range []int{roundLen, 1, 0, roundLen / 2} {
		got := putThenGet(t, v[:cut])
		if len(got) != roundLen || cap(got) != roundLen {
			t.Fatalf("vector Put at length %d came back with len %d cap %d, want %d",
				cut, len(got), cap(got), roundLen)
		}
	}
	if class(roundLen) == nil {
		t.Fatalf("Put(%d) created no class", roundLen)
	}
	if class(1) != nil || class(roundLen/2) != nil {
		t.Fatal("Put classed a vector by the length it was cut to, not by its capacity")
	}
}

func TestPutIgnoresNilAndZeroCapacity(t *testing.T) {
	before := len(classSizes())
	Put(nil)
	Put(Vector{})
	Put(make(Vector, 0))
	if after := len(classSizes()); after != before {
		t.Fatalf("Put of empty vectors changed the class table: %d → %d classes", before, after)
	}
	if class(0) != nil {
		t.Fatal("a zero-length class exists")
	}
}

// TestPutPoisonsExactlyInRaceBuilds pins the stale-reference guard to the
// build it belongs to: NaN fill under -race, nothing otherwise.
func TestPutPoisonsExactlyInRaceBuilds(t *testing.T) {
	probe := Vector{1}
	poison(probe)
	poisons := math.IsNaN(probe[0])

	v := make(Vector, 64, 128)
	for i := range v {
		v[i] = float64(i + 1)
	}
	full := v[:cap(v)]
	Put(v[:10])
	for i, x := range full {
		want := 0.0 // the tail beyond len was never written
		if i < 64 {
			want = float64(i + 1)
		}
		if poisons && !math.IsNaN(x) {
			t.Fatalf("race build: coordinate %d of a Put vector reads %v, want NaN over the full capacity", i, x)
		}
		if !poisons && x != want {
			t.Fatalf("coordinate %d of a Put vector reads %v, want %v: Put must not write outside race builds", i, x, want)
		}
	}
}

func classSizes() map[int]struct{} {
	classMu.RLock()
	defer classMu.RUnlock()
	out := make(map[int]struct{}, len(classes))
	for n := range classes {
		out[n] = struct{}{}
	}
	return out
}
