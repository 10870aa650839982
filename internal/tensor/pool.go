package tensor

import (
	"sync"
	"sync/atomic"
)

// One process-wide free list for the d-sized vectors of a live step:
// received frames, courier snapshots, aggregates, gradients. There is one
// sync.Pool per exact length, so the GC trims whatever two cycles did not
// reuse and a class is never searched for a near fit.
//
// Every vector taken with Get has exactly one owner, and only the owner may
// Put it — once, after the last read. The package comment (doc.go) has the
// table of who that is for each kind of vector. Code that never Puts (the
// simulator, every Rule.Aggregate) behaves as if Get were make.
//
// Each class keeps a ledger of that rule (Outstanding): +1 for every Get at
// its length, −1 for every Put or Reclaim that reaches it. A run that hands
// back everything it took leaves the count where it found it; a vector put
// twice drives it down, one never put leaves it up.
//
// Three rules face Byzantine senders:
//
//   - Get never creates a size class; only Put does, and only code that
//     vouches for the length calls Put: the collector for lengths its layout
//     produces, a node for vectors it made itself. Code that cannot vouch —
//     a mailbox discarding a frame nobody received — calls Reclaim, which
//     creates none either. A sender declaring odd lengths therefore grows
//     nothing, neither a pool nor a ledger entry — its frames fall through
//     to make and to the garbage collector, as they always did.
//   - Get reserves memory exactly where make did. The wire reader still
//     commits a vector only after the frame's first 64 KiB chunk has landed,
//     and only up to the exact-allocation bound (codec.go).
//   - A vector from Get holds whatever its last owner left in it and must be
//     overwritten in full before it is read. Race builds make a violation
//     loud: Put fills the vector with NaN (poison_race.go), so a stale reader
//     trips the finiteness validator or a bit-identity comparison.
var (
	classMu sync.RWMutex
	classes = map[int]*sizeClass{} // by capacity; entries are added by Put only
)

// sizeClass is the free list of one exact length and its ledger.
type sizeClass struct {
	pool sync.Pool
	out  atomic.Int64 // Gets less Puts and Reclaims since the class was made
}

func class(n int) *sizeClass {
	classMu.RLock()
	defer classMu.RUnlock()
	return classes[n]
}

// Get returns a vector of length n with unspecified contents: one that was
// Put at exactly that length if the free list holds any, a fresh one
// otherwise.
func Get(n int) Vector {
	if c := class(n); c != nil {
		c.out.Add(1)
		if v, ok := c.pool.Get().(*Vector); ok {
			return *v
		}
	}
	return make(Vector, n)
}

// Put hands v's backing array to the free list, at its full capacity
// whatever length the slice was cut to. The caller must own the array — v
// is its own allocation, not a view into a longer one — and must not touch
// it again. Nil and zero-capacity vectors are ignored.
func Put(v Vector) {
	if cap(v) == 0 {
		return
	}
	c := class(cap(v))
	if c == nil {
		classMu.Lock()
		if c = classes[cap(v)]; c == nil {
			c = new(sizeClass)
			classes[cap(v)] = c
		}
		classMu.Unlock()
	}
	c.release(v)
}

// Reclaim is Put for a vector whose length nobody vouches for — a received
// frame a transport discards before any collector saw it, its length the
// sender's choice. It hands v back only into a size class that already
// exists and otherwise leaves it to the garbage collector, so it creates no
// class. The ownership rules are Put's.
func Reclaim(v Vector) {
	if c := class(cap(v)); c != nil {
		c.release(v)
	}
}

func (c *sizeClass) release(v Vector) {
	c.out.Add(-1)
	v = v[:cap(v)]
	poison(v)
	c.pool.Put(&v)
}

// Outstanding returns the ledger of every size class, by length: how many
// vectors Get handed out since the class was made, less the ones Put and
// Reclaim brought back. Only vectors taken after their class existed are
// counted out, so the count is exact from the class's first Put on; the
// vectors the free list holds are never outstanding.
func Outstanding() map[int]int64 {
	classMu.RLock()
	defer classMu.RUnlock()
	out := make(map[int]int64, len(classes))
	for n, c := range classes {
		out[n] = c.out.Load()
	}
	return out
}
