package tensor

import "sync"

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
// Three rules face Byzantine senders:
//
//   - Get never creates a size class; only Put does, and only code that
//     vouches for the length calls Put: the collector for lengths its layout
//     produces, a node for vectors it made itself. Code that cannot vouch —
//     a mailbox discarding a frame nobody received — calls Reclaim, which
//     creates none either. A sender declaring odd lengths therefore grows
//     nothing — its frames fall through to make and to the garbage
//     collector, as they always did.
//   - Get reserves memory exactly where make did. The wire reader still
//     commits a vector only after the frame's first 64 KiB chunk has landed,
//     and only up to the exact-allocation bound (codec.go).
//   - A vector from Get holds whatever its last owner left in it and must be
//     overwritten in full before it is read. Race builds make a violation
//     loud: Put fills the vector with NaN (poison_race.go), so a stale reader
//     trips the finiteness validator or a bit-identity comparison.
var (
	classMu sync.RWMutex
	classes = map[int]*sync.Pool{} // by capacity; entries are added by Put only
)

func class(n int) *sync.Pool {
	classMu.RLock()
	defer classMu.RUnlock()
	return classes[n]
}

// Get returns a vector of length n with unspecified contents: one that was
// Put at exactly that length if the free list holds any, a fresh one
// otherwise.
func Get(n int) Vector {
	if p := class(n); p != nil {
		if v, ok := p.Get().(*Vector); ok {
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
	p := class(cap(v))
	if p == nil {
		classMu.Lock()
		if p = classes[cap(v)]; p == nil {
			p = new(sync.Pool)
			classes[cap(v)] = p
		}
		classMu.Unlock()
	}
	release(p, v)
}

// Reclaim is Put for a vector whose length nobody vouches for — a received
// frame a transport discards before any collector saw it, its length the
// sender's choice. It hands v back only into a size class that already
// exists and otherwise leaves it to the garbage collector, so it creates no
// class. The ownership rules are Put's.
func Reclaim(v Vector) {
	if p := class(cap(v)); p != nil {
		release(p, v)
	}
}

func release(p *sync.Pool, v Vector) {
	v = v[:cap(v)]
	poison(v)
	p.Put(&v)
}
