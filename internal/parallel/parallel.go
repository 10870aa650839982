package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxPool bounds the number of persistent workers (and therefore worker
// slots handed to ForWorker bodies). It exists so per-worker scratch tables
// stay small; no realistic machine exceeds it.
const maxPool = 256

var (
	workersN atomic.Int64 // desired parallelism; see Workers
	active   atomic.Int64 // >0 while a region runs; guards nesting
	poolMu   sync.Mutex
	spawned  int
	jobs     = make(chan *Runner, maxPool)
)

func init() { workersN.Store(int64(defaultWorkers())) }

func defaultWorkers() int {
	n := runtime.NumCPU()
	if n > maxPool {
		n = maxPool
	}
	return n
}

// Workers returns the current worker count. 1 means fully serial execution.
func Workers() int { return int(workersN.Load()) }

// SetWorkers sets the process-wide worker count and returns the previous
// value. n ≤ 0 restores the default (runtime.NumCPU()). The count is clamped
// to [1, 256]. Changing it never changes results — only how many chunks run
// concurrently. Change it between computations, not while kernels are
// running: kernels may size per-worker state from one read of Workers.
func SetWorkers(n int) int {
	if n <= 0 {
		n = defaultWorkers()
	}
	if n > maxPool {
		n = maxPool
	}
	return int(workersN.Swap(int64(n)))
}

// Busy reports whether a parallel region is currently executing. Kernels
// with a cheaper serial variant (e.g. the one-pass convolution backward) use
// it to skip a restructured parallel variant that would run inline anyway.
// It is advisory: both variants must produce identical results.
func Busy() bool { return active.Load() > 0 }

// GrainFor returns a chunk grain such that one chunk performs roughly
// targetWork units, given perItem work units per loop iteration. The result
// is at least 1. Callers pick targetWork near the point where chunk compute
// dominates dispatch cost (~tens of microseconds).
func GrainFor(perItem, targetWork int) int {
	if perItem <= 0 {
		perItem = 1
	}
	g := targetWork / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// ChunkCount returns the number of fixed chunks [i·grain, min((i+1)·grain, n))
// that For and ForWorker split [0, n) into. It depends only on
// (n, grain) — ordered reductions rely on that.
func ChunkCount(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// Runner is one parallel-for region, the body of For and ForWorker: a pool
// worker receives the *Runner over the jobs channel and drains its chunks.
// The body receives a worker slot w — unique among the workers of one Run
// and smaller than the worker count — and a chunk [lo, hi). It must treat
// chunks as independent: any cell it writes must be owned by exactly one
// chunk.
type Runner struct {
	body   func(w, lo, hi int)
	n      int
	grain  int
	cursor atomic.Int64
	slots  atomic.Int64
	wg     sync.WaitGroup
}

// Run executes body over [0, n) in grain-sized chunks. With one worker, one
// chunk, or while another region is active, the body runs inline as the
// single span body(0, 0, n) — callers needing per-chunk structure regardless
// of scheduling (ordered reductions) iterate chunk indices instead, see
// ForWorker's package examples.
func (r *Runner) Run(n, grain int) { r.RunMax(n, grain, maxPool) }

// RunMax is Run with a worker-slot ceiling: no body invocation receives a
// slot ≥ maxWorkers, even if SetWorkers raises the global count between the
// caller sizing its per-worker scratch and this dispatch reading the knob.
// Callers with per-worker state pass its length here.
func (r *Runner) RunMax(n, grain, maxWorkers int) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	w := Workers()
	if w > maxWorkers {
		w = maxWorkers
	}
	if w > chunks {
		w = chunks
	}
	if w <= 1 || !tryEnter() {
		r.body(0, 0, n)
		return
	}
	defer active.Add(-1)
	ensure(w - 1)
	r.n, r.grain = n, grain
	r.cursor.Store(0)
	r.slots.Store(0)
	r.wg.Add(w - 1)
	for i := 1; i < w; i++ {
		jobs <- r
	}
	r.work() // the caller is a worker too
	r.wg.Wait()
}

// tryEnter claims the single parallel region, failing when one is active.
func tryEnter() bool {
	if active.Add(1) == 1 {
		return true
	}
	active.Add(-1)
	return false
}

// work claims a worker slot and drains chunks until the cursor passes n.
func (r *Runner) work() {
	w := int(r.slots.Add(1)) - 1
	n, g := r.n, r.grain
	for {
		c := int(r.cursor.Add(1)) - 1
		lo := c * g
		if lo >= n {
			return
		}
		hi := lo + g
		if hi > n {
			hi = n
		}
		r.body(w, lo, hi)
	}
}

// ensure spawns persistent pool workers until at least k exist.
func ensure(k int) {
	poolMu.Lock()
	for spawned < k {
		spawned++
		go worker()
	}
	poolMu.Unlock()
}

func worker() {
	for r := range jobs {
		r.work()
		r.wg.Done()
	}
}

// For executes body over [0, n) in grain-sized chunks, possibly in
// parallel. The body must be element-independent (each output cell written
// by exactly one chunk), which makes the result identical however the
// chunks are scheduled — including the serial single-span fallback.
func For(n, grain int, body func(lo, hi int)) {
	r := Runner{body: func(_, lo, hi int) { body(lo, hi) }}
	r.Run(n, grain)
}

// ForWorker is For with a worker slot: body(w, lo, hi) may index per-worker
// scratch by w, which is unique per concurrent worker and smaller than both
// the worker count and maxWorkers — callers pass the length of their
// per-worker scratch as maxWorkers, making a concurrent SetWorkers raise
// harmless. Ordered reductions use ForWorker over *chunk indices* with
// grain 1 — the chunk list is fixed by the problem size, each body call
// writes per-chunk output slots, and the caller folds the slots in chunk
// order afterwards; results are then bit-identical at every worker count.
func ForWorker(n, grain, maxWorkers int, body func(w, lo, hi int)) {
	r := Runner{body: body}
	r.RunMax(n, grain, maxWorkers)
}

// Do runs the tasks concurrently, bounded by the worker count, and returns
// the error of the lowest-indexed failing task (deterministic regardless of
// scheduling). With one worker, one task, or inside an active region, tasks
// run sequentially in order — in that case a failing task short-circuits
// the rest, so tasks must not rely on all of them running. Do fans out whole
// independent computations (e.g. the curves of one figure); kernels inside
// the tasks see the active region and stay serial.
func Do(tasks ...func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	w := Workers()
	if w > len(tasks) {
		w = len(tasks)
	}
	if w <= 1 || !tryEnter() {
		for _, t := range tasks {
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	defer active.Add(-1)
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, w)
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t func() error) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = t()
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
