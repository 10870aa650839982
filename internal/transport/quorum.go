package transport

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// ShardFold consumes one completed shard quorum: the ordered payloads (and
// their senders) for coordinate range [lo, hi) of the logical vector. The
// collector never reads or writes the payloads again, and a fold may retain
// them (the streaming Multi-Krum path does) — until the caller's next
// Recycle or Advance, which hands their memory back to the free list.
type ShardFold func(lo, hi int, senders []string, inputs []tensor.Vector) error

// Collector implements the quorum-gathering discipline of the protocol
// (Figure 2 of the paper): for a given (kind, step), aggregate the first q
// messages received — at most one per sender, in true arrival order —
// discarding messages from past steps and buffering messages from future
// steps (up to a bounded horizon) or other kinds. It keeps that discipline
// per coordinate shard of its Layout and hands each shard to the aggregation
// fold the moment that shard's first-q sender set is complete. Whole-vector
// collection is the one-shard layout (NewShardLayout(dim, 0)): one fold, of
// whole vectors, when the q-th sender arrives. A wider layout drops
// collector memory from O(q·d) to O(q·shard) and overlaps the aggregation
// arithmetic with the network receive.
//
// Framings interoperate both ways, so a deployment may mix them: a
// whole-vector message delivers every shard of its sender at once, and a
// one-shard collector reassembles senders that stream chunk frames, each
// arriving when its last shard lands.
//
// Deduplication per sender is a safety requirement, not an optimisation: a
// Byzantine node could otherwise fill an entire quorum with its own copies
// and fully control the aggregation input.
//
// Two membership modes, selected per collection (with one shard they
// coincide):
//
//   - per-shard (pinned=false): every shard's quorum is its own first q
//     arrivals. Legal for coordinate-wise rules (median, trimmed mean),
//     whose resilience argument holds per coordinate for any q-set with at
//     most f Byzantine members.
//   - pinned (pinned=true): the first shard to fill pins an ordered sender
//     set; every other shard waits for exactly those senders and folds
//     them in pinned order. Required by rules that correlate coordinates
//     across shards (Multi-Krum's pairwise distances need the same input
//     set in the same order everywhere). Liveness caveat: once pinned, the
//     round needs every pinned member's every shard to arrive within the
//     round — the paper's reliable-asynchronous link assumption. A frame
//     that is silently lost, or deferred past the round (the fault
//     injector's reorder holds a frame until its sender's NEXT send to that
//     destination, which in a bulk-synchronous protocol is next step),
//     stalls a pinned round, where an unpinned quorum's margin absorbs the
//     gap by substituting senders (per-shard mode: a lost frame costs its
//     sender that one shard's slot). Deployments on lossy links should
//     stream only coordinate-wise rules, or keep whole-vector framing for
//     the pinned phase.
type Collector struct {
	ep Endpoint

	// Layout is the size-derived shard partition every frame is checked
	// against; frames disagreeing with it are dropped as malformed.
	Layout ShardLayout

	// Validator, when non-nil, vets every inbound payload — a whole vector
	// or a single shard — before it can count toward any quorum (finiteness,
	// sender identity): a failing Byzantine payload behaves like silence
	// rather than poisoning downstream arithmetic. Dimension and
	// shard-extent checks are the collector's own job.
	Validator func(Message) bool

	// Horizon bounds how many steps ahead of the one being collected a
	// message may be and still get buffered (0 means DefaultHorizon).
	// Honest nodes run bulk-synchronously, so they are never more than a
	// step or two ahead; without the bound, a Byzantine sender spraying
	// steps t+1..t+10⁹ would grow the buffer without limit.
	Horizon int

	// Senders is who may fill a quorum at this node: the legal senders of
	// each kind the node collects, straight from its own configuration (a
	// server: its workers' gradients and its peers' parameters; a worker:
	// its servers' parameters). Any other (kind, sender) pair — an
	// identity the node was never told about, a worker posing as a server
	// peer, a peer claiming the node's own ID, a kind
	// with no entry — is dropped on arrival and counted, before it can cost
	// a buffer, a reassembly or a validation, however well-formed and
	// authenticated its frames: the paper's bounds count enumerated nodes.
	// The table also lets a timeout name who a round is still waiting on.
	// A nil table admits no one: every frame is dropped as DroppedRoster.
	Senders map[Kind][]string

	// Metrics is where the collector counts, never nil (NewCollector starts
	// it on a fresh handle; assign the node's registry handle before the
	// first Collect). DroppedFuture: messages claiming a step beyond the
	// horizon. DroppedMalformed: frames disagreeing with the layout (a whole
	// vector of the wrong dimension, a shard tag or extent the layout does
	// not produce) and, at a one-shard collector, chunk streams that cannot
	// be reassembled (changed counts, non-tiling offsets, oversized
	// assemblies). DroppedRoster: messages whose sender is not legal for
	// their kind at this node (see Senders). PeakBytes: the most payload
	// bytes held at once, candidates awaiting their quorum plus partial
	// reassemblies; a shard's buffer is released the moment its quorum
	// folds. Payloads handed to a fold stay readable until Recycle
	// (coordinate-wise streamers are done with them at once; Multi-Krum's
	// retains its q inputs until selection).
	Metrics *metrics.NodeMetrics

	buf map[collectorKey]*stepBuf
	// decided remembers the rounds Collect finished until Advance passes
	// them: their late frames are discarded on sight (a timed-out round is
	// not decided, so ResetRound and a retry keep working).
	decided map[collectorKey]struct{}
	// spent holds the vectors of released slots and rounds. A fold may still
	// be reading them (see ShardFold), so they wait here for Recycle.
	spent []tensor.Vector
	// free holds retired round buffers, emptied but with their slot slices
	// and dedup sets still grown, for the next round bufFor opens.
	free []*stepBuf
	// stored counts the frames buffered so far: a fold that runs while it
	// is below the frames sent has overlapped the receive stream.
	stored   int
	curBytes int
}

// DefaultHorizon is the future-step buffering bound when Horizon is unset —
// orders of magnitude beyond the honest lead (≤ ~2 steps) and still a hard
// memory cap against step-spraying senders.
const DefaultHorizon = 64

// ErrQuorumTimeout wraps every quorum-wait expiry from Collect and
// CollectAny, so callers can distinguish "the quorum did not fill in time"
// (retryable: a pinned round can fail over, a rejoiner can fall back to its
// checkpoint) from structural failures like a closed endpoint. Match with
// errors.Is.
var ErrQuorumTimeout = fmt.Errorf("transport: quorum timeout")

type collectorKey struct {
	kind Kind
	step int
}

// stepBuf holds one (kind, step)'s per-shard quorum candidates.
type stepBuf struct {
	slots  []shardSlot
	pinned []string // pinned membership, nil until decided
	folded int      // slots handed to the fold so far
	// wholes are the whole-vector messages whose per-shard views sit in (or
	// went through) the slots of a multi-shard layout: the views are never
	// recycled, the whole is — once, when the round is released.
	wholes []tensor.Vector
	// asm holds per-sender partial chunk reassemblies at a one-shard
	// collector (a sender streaming shards counts as "arrived" only when
	// its last shard lands and the whole vector checks out).
	asm map[string]*assembly
}

// shardSlot is one shard's arrival-ordered candidate set: msgs is
// receipt-ordered with at most one entry per sender, seen the dedup set
// behind it.
type shardSlot struct {
	msgs   []Message
	seen   map[string]struct{}
	folded bool
}

// assembly is one sender's in-flight chunked vector: parts by shard index,
// joined once all are present and their offsets tile a contiguous range.
type assembly struct {
	parts []Message
	got   int
	bytes int
}

// NewCollector wraps an endpoint with the given shard layout.
func NewCollector(ep Endpoint, layout ShardLayout) *Collector {
	return &Collector{ep: ep, Layout: layout, buf: make(map[collectorKey]*stepBuf),
		decided: make(map[collectorKey]struct{}), Metrics: metrics.NewNodeMetrics()}
}

func (c *Collector) horizon() int {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return DefaultHorizon
}

func (c *Collector) account(delta int) {
	c.curBytes += delta
	c.Metrics.ObservePeak(c.curBytes)
}

// ResetRound discards all buffered state for one (kind, step) round —
// including a decided pinned membership — and reports whether there was
// one. This is the failover primitive behind the pinned-mode liveness
// caveat: when a pinned member goes silent mid-round, the round as pinned
// can never complete, so the caller abandons it and re-collects from zero
// arrivals (with a fresh streamer) for a pin drawn from the senders still
// alive. A round that had not pinned was short of senders, not stalled by
// its pin: retrying it cannot help.
func (c *Collector) ResetRound(kind Kind, step int) (wasPinned bool) {
	key := collectorKey{kind: kind, step: step}
	b := c.buf[key]
	if b == nil {
		return false
	}
	wasPinned = b.pinned != nil
	c.retire(key, b)
	return wasPinned
}

// Advance drops all buffered state for steps before the given step, of any
// kind, and recycles it along with whatever earlier rounds left spent: by
// the time a node enters a new step, nothing reads the previous steps'
// inputs any more. Nodes call it when entering a new step so stale traffic
// cannot accumulate without bound, and once more past their last step when
// they return, so that what the run left buffered goes back as well.
func (c *Collector) Advance(step int) {
	for key, b := range c.buf {
		if key.step < step {
			c.retire(key, b)
		}
	}
	for key := range c.decided {
		if key.step < step {
			delete(c.decided, key)
		}
	}
	c.Recycle()
}

// Recycle hands the vectors of every released slot and round back to the
// free list. The caller asserts that no fold, streamer or aggregate still
// reads the inputs the collector gave it: a node loop calls it after the
// streamer's Result and after anything that inspects the streamer's
// selection, never between Fold and Result (Multi-Krum averages its
// retained inputs at Result).
func (c *Collector) Recycle() {
	for _, v := range c.spent {
		c.put(v)
	}
	clear(c.spent)
	c.spent = c.spent[:0]
}

// put hands a vector the collector owns — Recv gave it, or assemble made it
// — to the free list, provided its length is one the layout produces (the
// dimension, or a shard extent of a multi-shard layout): the collector
// vouches for those lengths and no others, so whatever lengths a sender
// declares, the free list grows no size class for them. v must be its own
// allocation, never a view into a longer vector.
func (c *Collector) put(v tensor.Vector) {
	l := c.Layout
	lo, hi := l.Bounds(l.Count() - 1) // the last shard may be the short one
	if n := len(v); n == l.Dim || n == l.Size || n == hi-lo {
		tensor.Put(v[:n:n])
	}
}

// owned reports whether a buffered message's vector is its own allocation:
// everything is, except the per-shard views a whole-vector message is cut
// into at a multi-shard layout.
func (c *Collector) owned(m *Message) bool { return m.IsShard() || c.Layout.Count() == 1 }

// retire releases the round under key — every buffered payload byte back
// to the accounting, its vectors to the spent list — forgets it, and keeps
// its emptied buffer for a later round.
func (c *Collector) retire(key collectorKey, b *stepBuf) {
	for i := range b.slots {
		c.releaseSlot(&b.slots[i])
		b.slots[i].folded = false
	}
	c.spent = append(c.spent, b.wholes...)
	clear(b.wholes)
	b.wholes = b.wholes[:0]
	for _, a := range b.asm {
		c.account(-a.bytes)
	}
	b.asm, b.pinned, b.folded = nil, nil, 0
	delete(c.buf, key)
	c.free = append(c.free, b)
}

// releaseSlot empties s, keeping the capacity of its candidate list and its
// dedup set.
func (c *Collector) releaseSlot(s *shardSlot) {
	for i := range s.msgs {
		m := &s.msgs[i]
		c.account(-8 * len(m.Vec))
		if c.owned(m) {
			c.spent = append(c.spent, m.Vec)
		}
	}
	clear(s.msgs)
	s.msgs = s.msgs[:0]
	clear(s.seen)
}

// bufFor returns the (kind, step) buffer, taking it on first use from the
// retired ones when the last has the layout's slot count.
func (c *Collector) bufFor(key collectorKey) *stepBuf {
	b := c.buf[key]
	if b == nil {
		if n := len(c.free); n > 0 && len(c.free[n-1].slots) == c.Layout.Count() {
			b = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else {
			b = &stepBuf{slots: make([]shardSlot, c.Layout.Count())}
		}
		c.buf[key] = b
	}
	return b
}

// waiter is one collection's wall-clock budget. timeout < 0 blocks
// indefinitely — the faithful asynchronous-model setting, where liveness
// comes from the quorum bound q ≤ n−f rather than from timing. Tests use
// finite timeouts to convert protocol bugs into failures rather than hangs.
type waiter struct {
	timeout  time.Duration
	deadline time.Time
}

func newWaiter(timeout time.Duration) waiter {
	w := waiter{timeout: timeout}
	if timeout >= 0 {
		//lint:allow-clock Recv timeouts are wall-clock by contract; liveness never decides values
		w.deadline = time.Now().Add(timeout)
	}
	return w
}

// recv returns the endpoint's next message; ok is false when the budget ran
// out (expired) or the endpoint closed.
func (w waiter) recv(ep Endpoint) (m Message, ok, expired bool) {
	wait := time.Duration(-1)
	if w.timeout >= 0 {
		//lint:allow-clock deadline bookkeeping for the wall-clock timeout above
		if wait = time.Until(w.deadline); wait <= 0 {
			return Message{}, false, true
		}
	}
	if m, ok = ep.Recv(wait); ok {
		return m, true, false
	}
	//lint:allow-clock discriminates timeout from closure on the wall-clock deadline
	return Message{}, false, w.timeout >= 0 && time.Now().After(w.deadline)
}

// Collect blocks until every shard of the given (kind, step) has been
// folded, or the timeout elapses (timeout < 0 blocks indefinitely). q is
// the network quorum per shard: each fold receives that shard's first q
// distinct senders in the order they arrived — "aggregate the first q
// received" from the paper, literally: which vectors enter the aggregation,
// and in what order, is decided by receipt time alone, never by map
// iteration or sender name. When self is non-nil it is this node's own
// vector, prepended (as sender selfID, position 0) to every shard's inputs
// — the contraction round's "own vector included" without a loopback
// message. pinned selects the membership mode (see the type comment). The
// returned slice is the pinned ordered membership (nil in per-shard mode);
// it excludes selfID. Messages for other (kind, step) pairs observed while
// waiting are buffered if current-or-near-future, dropped if stale or
// beyond the horizon.
func (c *Collector) Collect(kind Kind, step, q int, self tensor.Vector, selfID string,
	pinned bool, fold ShardFold, timeout time.Duration) ([]string, error) {
	count := c.Layout.Count()
	if count <= 0 || c.Layout.Dim <= 0 {
		return nil, fmt.Errorf("transport: collect needs a valid layout, got %+v", c.Layout)
	}
	if self != nil && len(self) != c.Layout.Dim {
		return nil, fmt.Errorf("transport: self vector has dimension %d, layout %d", len(self), c.Layout.Dim)
	}
	if q <= 0 {
		if self == nil {
			return nil, nil // an empty quorum is satisfied by silence
		}
		q = 0 // the aggregation still runs, at once, over the local input alone
	}

	key := collectorKey{kind: kind, step: step}
	b := c.bufFor(key)
	w := newWaiter(timeout)
	// One sweep up front consumes whatever previous collections buffered;
	// after that, slots are re-examined only when a frame for THIS
	// (kind, step) lands — frames buffered for other rounds cost no sweep.
	if err := c.progress(b, q, self, selfID, pinned, fold); err != nil {
		return nil, err
	}
	for b.folded < count {
		m, ok, expired := w.recv(c.ep)
		if expired {
			return nil, c.timeoutError(b, kind, step, q)
		}
		if !ok {
			return nil, fmt.Errorf("transport: endpoint closed while collecting %s step %d (%d/%d shards)",
				kind, step, b.folded, count)
		}
		c.store(m, step)
		if m.Kind == kind && m.Step == step {
			if err := c.progress(b, q, self, selfID, pinned, fold); err != nil {
				return nil, err
			}
		}
	}
	// The round is decided; late messages for it are discarded per the
	// protocol (store drops them on sight until Advance passes the step).
	members := b.pinned
	c.retire(key, b)
	c.decided[key] = struct{}{}
	return members, nil
}

// timeoutError describes a round that did not fill in time by its first
// unfolded shard: how many of the senders it needs have arrived, who they
// are, and who it is still waiting on — the pinned members once a
// membership is pinned, otherwise the kind's legal senders (when the node
// declared them) that have not arrived.
func (c *Collector) timeoutError(b *stepBuf, kind Kind, step, q int) error {
	s := 0
	for s < len(b.slots)-1 && b.slots[s].folded {
		s++
	}
	slot := &b.slots[s]
	arrived := make([]string, len(slot.msgs))
	for i, m := range slot.msgs {
		arrived[i] = m.From
	}
	detail := fmt.Sprintf("shard %d, %d/%d shards folded; arrived: %s",
		s, b.folded, len(b.slots), strings.Join(arrived, " "))
	waiting, label := c.Senders[kind], "; still missing: "
	if b.pinned != nil {
		waiting, label = b.pinned, "; pinned, still missing: "
	}
	if waiting != nil {
		var missing []string
		for _, id := range waiting {
			if _, ok := slot.seen[id]; !ok {
				missing = append(missing, id)
			}
		}
		detail += label + strings.Join(missing, " ")
	}
	return fmt.Errorf("%w: have %d/%d %s messages for step %d (%s)",
		ErrQuorumTimeout, len(arrived), q, kind, step, detail)
}

// CollectAny blocks until ANY single step ≥ minStep has a full quorum — q
// distinct senders buffered for every shard — of the given kind, and
// returns that step; the quorum stays buffered, so the Collect the caller
// issues for that step next folds it at once. This is the rejoin discovery
// primitive: a server restarting from a checkpoint does not know how far
// the live cluster has advanced, so it listens to the traffic in flight and
// latches onto the first step a full quorum materialises for.
//
// Buffering stays bounded by the same horizon as Collect, but the floor
// is mobile: a message more than a horizon ahead of the current floor
// advances the floor (flushing everything that fell below it) instead of
// being dropped, so the rejoiner can catch up to a cluster arbitrarily
// far ahead of its checkpoint. A Byzantine step-sprayer can therefore
// delay a rejoin by yanking the floor upward — but never corrupt it,
// because completion still requires q distinct validated senders agreeing
// on one step; on timeout the caller falls back to resuming from the
// checkpoint alone. When several steps complete a quorum simultaneously,
// the lowest wins, so the rejoiner re-enters the protocol as early as it
// can.
func (c *Collector) CollectAny(kind Kind, minStep, q int, timeout time.Duration) (int, error) {
	if q <= 0 {
		return minStep, nil
	}
	floor := minStep
	w := newWaiter(timeout)
	short := func(s shardSlot) bool { return len(s.msgs) < q }
	for {
		// Lowest already-complete step ≥ floor wins.
		best := -1
		for key, b := range c.buf {
			if key.kind == kind && key.step >= floor && (best < 0 || key.step < best) &&
				!slices.ContainsFunc(b.slots, short) {
				best = key.step
			}
		}
		if best >= 0 {
			return best, nil
		}
		m, ok, expired := w.recv(c.ep)
		if expired {
			return 0, fmt.Errorf("%w: rejoin found no step ≥ %d with %d %s messages",
				ErrQuorumTimeout, floor, q, kind)
		}
		if !ok {
			return 0, fmt.Errorf("transport: endpoint closed while rejoining on %s", kind)
		}
		if m.Kind == kind && m.Step > floor+c.horizon() {
			floor = m.Step - c.horizon()
			c.Advance(floor)
		}
		c.store(m, floor)
	}
}

// progress folds every shard whose quorum is complete under the current
// membership mode.
func (c *Collector) progress(b *stepBuf, q int, self tensor.Vector, selfID string,
	pinned bool, fold ShardFold) error {
	if pinned && b.pinned == nil {
		// Pin on the first shard (lowest index wins when several are
		// already complete) whose first q arrivals decide the membership
		// for the whole step — "aggregate the first q received", decided
		// once and applied to every coordinate range.
		for s := range b.slots {
			if len(b.slots[s].msgs) >= q {
				members := make([]string, q)
				for i, m := range b.slots[s].msgs[:q] {
					members[i] = m.From
				}
				b.pinned = members
				c.prune(b)
				break
			}
		}
		if b.pinned == nil {
			return nil
		}
	}
	for s := range b.slots {
		slot := &b.slots[s]
		// Allocation-free completeness probe first: most sweeps find a
		// sender still in flight, and should cost q map lookups, not a
		// slice build.
		if slot.folded || !slot.complete(b.pinned, q) {
			continue
		}
		senders := make([]string, 0, q+1)
		inputs := make([]tensor.Vector, 0, q+1)
		lo, hi := c.Layout.Bounds(s)
		if self != nil {
			senders, inputs = append(senders, selfID), append(inputs, self[lo:hi])
		}
		if b.pinned != nil {
			for _, id := range b.pinned {
				i := slices.IndexFunc(slot.msgs, func(m Message) bool { return m.From == id })
				senders, inputs = append(senders, id), append(inputs, slot.msgs[i].Vec)
			}
		} else {
			for _, m := range slot.msgs[:q] {
				senders, inputs = append(senders, m.From), append(inputs, m.Vec)
			}
		}
		if err := fold(lo, hi, senders, inputs); err != nil {
			return err
		}
		slot.folded = true
		b.folded++
		c.releaseSlot(slot)
	}
	return nil
}

// complete reports whether the slot's quorum is in: every pinned member
// once a membership is pinned, any q distinct senders otherwise.
func (s *shardSlot) complete(pinned []string, q int) bool {
	if pinned == nil {
		return len(s.msgs) >= q
	}
	for _, id := range pinned {
		if _, ok := s.seen[id]; !ok {
			return false
		}
	}
	return true
}

// prune drops buffered shards from senders outside the pinned membership —
// their payloads can never enter this step's aggregation, so holding them
// would surrender the memory bound to late senders.
func (c *Collector) prune(b *stepBuf) {
	for i := range b.slots {
		slot := &b.slots[i]
		if slot.folded {
			continue
		}
		kept := slot.msgs[:0]
		for _, m := range slot.msgs {
			if slices.Contains(b.pinned, m.From) {
				kept = append(kept, m)
			} else {
				c.account(-8 * len(m.Vec))
				delete(slot.seen, m.From)
				if c.owned(&m) {
					c.put(m.Vec) // no fold ever saw it
				}
			}
		}
		clear(slot.msgs[len(kept):])
		slot.msgs = kept
	}
}

// store buffers m's shard (or, for a whole-vector message, every shard)
// unless its sender is not legal for its kind, its round is already decided,
// or it is stale relative to the step being collected, beyond the
// future-step horizon, malformed, or duplicated. Recv made the collector
// m.Vec's owner: a frame dropped here goes straight back to the free list
// (put).
func (c *Collector) store(m Message, currentStep int) {
	if !slices.Contains(c.Senders[m.Kind], m.From) {
		// Not a sender this node takes this kind from (or a kind it never
		// collects): dropped first, so it is counted whatever step it claims
		// and can be charged no buffer, reassembly or validation.
		c.Metrics.DroppedRoster.Add(1)
		c.put(m.Vec)
		return
	}
	key := collectorKey{kind: m.Kind, step: m.Step}
	if _, done := c.decided[key]; done || !m.Kind.Valid() || m.Step < currentStep {
		// Late for a decided or completed round, or a junk kind that is
		// never collected: discard before it costs a buffer or a validation.
		c.put(m.Vec)
		return
	}
	if m.Step > currentStep+c.horizon() {
		c.Metrics.DroppedFuture.Add(1) // step-spraying sender: bound the buffer, count the drop
		c.put(m.Vec)
		return
	}
	if m.IsShard() && c.Layout.Count() == 1 {
		// A sharded sender at a one-shard receiver: nothing arrives until
		// the vector is whole.
		whole, done := c.assemble(c.bufFor(key), m)
		if !done {
			return
		}
		m = whole
	}
	if m.IsShard() {
		if !c.Layout.CheckMeta(m.Shard, len(m.Vec)) {
			c.Metrics.DroppedMalformed.Add(1)
			return
		}
	} else if len(m.Vec) != c.Layout.Dim {
		c.Metrics.DroppedMalformed.Add(1)
		return
	}
	if c.Validator != nil && !c.Validator(m) {
		c.put(m.Vec)
		return // malformed payload: treat the sender as silent this round
	}
	b := c.bufFor(key)
	c.stored++
	if c.owned(&m) {
		if !c.storeSlot(b, m.Shard.Index, m) {
			c.put(m.Vec)
		}
		return
	}
	// A whole-vector message delivers every shard of its sender at once;
	// the slices share m.Vec's backing array, and the byte accounting
	// splits it across the slots so releases stay balanced.
	kept := false
	for s := range b.slots {
		lo, hi := c.Layout.Bounds(s)
		sm := m
		sm.Vec = m.Vec[lo:hi]
		kept = c.storeSlot(b, s, sm) || kept
	}
	if kept {
		b.wholes = append(b.wholes, m.Vec)
	} else {
		c.put(m.Vec)
	}
}

// storeSlot appends m to shard s's candidates and reports whether it did:
// false for a slot already folded, a sender outside the pin, a duplicate.
func (c *Collector) storeSlot(b *stepBuf, s int, m Message) bool {
	slot := &b.slots[s]
	if slot.folded {
		return false // quorum already decided for this shard; late arrivals are discarded
	}
	if b.pinned != nil && !slices.Contains(b.pinned, m.From) {
		return false // outside the pinned membership: can never be aggregated
	}
	if slot.seen == nil {
		slot.seen = make(map[string]struct{})
	}
	if _, dup := slot.seen[m.From]; dup {
		return false // only the first frame per sender counts toward a shard's quorum
	}
	slot.seen[m.From] = struct{}{}
	slot.msgs = append(slot.msgs, m)
	c.account(8 * len(m.Vec))
	return true
}

// assemble folds one chunk frame into its sender's partial vector and
// returns the reassembled whole message once every shard is present and
// the shards tile a contiguous coordinate range. Inconsistent streams
// (changed shard count, non-tiling offsets, oversized totals) drop the
// whole assembly: a sender that cannot keep its own framing straight is
// treated as silent for the round.
func (c *Collector) assemble(b *stepBuf, m Message) (Message, bool) {
	if _, dup := b.slots[0].seen[m.From]; dup {
		return Message{}, false // the sender already arrived whole
	}
	if b.asm == nil {
		b.asm = make(map[string]*assembly)
	}
	a := b.asm[m.From]
	if a == nil {
		a = &assembly{parts: make([]Message, m.Shard.Count)}
		b.asm[m.From] = a
	}
	drop := func() {
		c.Metrics.DroppedMalformed.Add(1)
		c.account(-a.bytes)
		delete(b.asm, m.From)
	}
	if len(a.parts) != m.Shard.Count {
		drop()
		return Message{}, false
	}
	if a.parts[m.Shard.Index].Kind != 0 {
		return Message{}, false // duplicate shard (network dup or replay): ignore
	}
	a.parts[m.Shard.Index] = m
	a.got++
	a.bytes += 8 * len(m.Vec)
	c.account(8 * len(m.Vec))
	if a.bytes > 8*MaxVecLen {
		drop() // no whole vector may exceed MaxVecLen; stop paying for one
		return Message{}, false
	}
	if a.got < len(a.parts) {
		return Message{}, false
	}
	// Complete: shards must tile [0, total) in index order.
	total := 0
	for _, p := range a.parts {
		if p.Shard.Offset != total {
			drop()
			return Message{}, false
		}
		total += len(p.Vec)
	}
	vec := tensor.Get(total)
	for _, p := range a.parts {
		copy(vec[p.Shard.Offset:], p.Vec)
	}
	c.account(-a.bytes)
	delete(b.asm, m.From)
	return Message{From: m.From, Kind: m.Kind, Step: m.Step, Vec: vec}, true
}
