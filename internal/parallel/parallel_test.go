package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 5000} {
				t.Run(fmt.Sprintf("w=%d n=%d g=%d", workers, n, grain), func(t *testing.T) {
					withWorkers(t, workers)
					hits := make([]int32, n)
					For(n, grain, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Fatalf("index %d visited %d times", i, h)
						}
					}
				})
			}
		}
	}
}

func TestForWorkerSlotsAreUniqueAndInRange(t *testing.T) {
	withWorkers(t, 4)
	const n, grain = 1024, 8
	// Per-worker scratch: if two chunks with the same worker slot ran
	// concurrently, the race detector would flag these counters.
	scratch := make([]int, Workers())
	var seen [maxPool]int32
	ForWorker(n, grain, len(scratch), func(w, lo, hi int) {
		if w < 0 || w >= Workers() {
			panic(fmt.Sprintf("worker slot %d out of range", w))
		}
		atomic.AddInt32(&seen[w], 1)
		scratch[w] += hi - lo
	})
	total := 0
	for _, s := range scratch {
		total += s
	}
	if total != n {
		t.Fatalf("scratch accounted for %d of %d items", total, n)
	}
}

// TestOrderedChunkReductionIsWorkerCountInvariant exercises the pattern the
// gradient kernel uses: fixed chunks derived from the problem size, per-chunk
// outputs, ordered fold. The folded result must be bit-identical at every
// worker count even though float addition is non-associative — because the
// chunk boundaries and the fold order never change.
func TestOrderedChunkReductionIsWorkerCountInvariant(t *testing.T) {
	const n, grain = 103, 4
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 / float64(i+3)
	}
	sum := func(workers int) float64 {
		withWorkers(t, workers)
		chunks := ChunkCount(n, grain)
		partial := make([]float64, chunks)
		ForWorker(chunks, 1, maxPool, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				s := 0.0
				for i := c * grain; i < n && i < (c+1)*grain; i++ {
					s += xs[i]
				}
				partial[c] = s
			}
		})
		var total float64
		for _, p := range partial {
			total += p
		}
		return total
	}
	want := sum(1)
	for _, w := range []int{2, 3, 4, 8} {
		if got := sum(w); got != want {
			t.Fatalf("workers=%d changed the reduction: %v vs %v", w, got, want)
		}
	}
}

func TestForWorkerRespectsSlotCeiling(t *testing.T) {
	withWorkers(t, 8)
	// Per-worker scratch of length 2: no slot may reach 2 even though the
	// global worker count is higher (the guard against SetWorkers racing a
	// caller's scratch sizing).
	var maxSlot atomic.Int32
	ForWorker(1024, 1, 2, func(w, lo, hi int) {
		for {
			cur := maxSlot.Load()
			if int32(w) <= cur || maxSlot.CompareAndSwap(cur, int32(w)) {
				return
			}
		}
	})
	if maxSlot.Load() >= 2 {
		t.Fatalf("worker slot %d exceeded ceiling 2", maxSlot.Load())
	}
}

func TestNestedRegionsRunInline(t *testing.T) {
	withWorkers(t, 4)
	var outer, inner int32
	For(8, 1, func(lo, hi int) {
		atomic.AddInt32(&outer, int32(hi-lo))
		// The nested call must execute inline (single span) without
		// deadlocking on the pool.
		For(16, 1, func(lo, hi int) {
			if lo != 0 || hi != 16 {
				panic("nested For did not collapse to a single span")
			}
			atomic.AddInt32(&inner, int32(hi-lo))
		})
	})
	if outer != 8 || inner != 8*16 {
		t.Fatalf("outer=%d inner=%d", outer, inner)
	}
}

func TestDoRunsAllTasksAndReturnsLowestIndexedError(t *testing.T) {
	withWorkers(t, 4)
	errA := errors.New("a")
	errB := errors.New("b")
	var ran int32
	err := Do(
		func() error { atomic.AddInt32(&ran, 1); return nil },
		func() error { atomic.AddInt32(&ran, 1); return errA },
		func() error { atomic.AddInt32(&ran, 1); return errB },
		func() error { atomic.AddInt32(&ran, 1); return nil },
	)
	if !errors.Is(err, errA) {
		t.Fatalf("want lowest-indexed error %v, got %v", errA, err)
	}
	if ran != 4 {
		t.Fatalf("parallel Do ran %d of 4 tasks", ran)
	}
}

func TestDoSerialFallbackShortCircuits(t *testing.T) {
	withWorkers(t, 1)
	boom := errors.New("boom")
	var ran int32
	err := Do(
		func() error { atomic.AddInt32(&ran, 1); return boom },
		func() error { atomic.AddInt32(&ran, 1); return nil },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if ran != 1 {
		t.Fatalf("serial Do ran %d tasks after an error", ran)
	}
}

func TestSetWorkersClampsAndRestoresDefault(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 || Workers() > maxPool {
		t.Fatalf("default workers out of range: %d", Workers())
	}
	SetWorkers(1 << 20)
	if Workers() != maxPool {
		t.Fatalf("clamp failed: %d", Workers())
	}
}

func TestGrainForAndChunkCount(t *testing.T) {
	if g := GrainFor(100, 1000); g != 10 {
		t.Fatalf("GrainFor(100,1000) = %d", g)
	}
	if g := GrainFor(1_000_000, 1000); g != 1 {
		t.Fatalf("huge perItem: %d", g)
	}
	if g := GrainFor(0, 1000); g != 1000 {
		t.Fatalf("zero perItem: %d", g)
	}
	if c := ChunkCount(10, 4); c != 3 {
		t.Fatalf("ChunkCount(10,4) = %d", c)
	}
	if c := ChunkCount(0, 4); c != 0 {
		t.Fatalf("ChunkCount(0,4) = %d", c)
	}
}

func TestBusyReflectsActiveRegion(t *testing.T) {
	withWorkers(t, 4)
	if Busy() {
		t.Fatal("Busy before any region")
	}
	var sawBusy atomic.Bool
	For(64, 1, func(lo, hi int) {
		if Busy() {
			sawBusy.Store(true)
		}
	})
	if !sawBusy.Load() {
		t.Fatal("Busy false inside a parallel region")
	}
	if Busy() {
		t.Fatal("Busy after the region ended")
	}
}
