package transport

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Collector implements the quorum-gathering discipline of the protocol
// (Figure 2 of the paper): for a given (kind, step), return the first q
// messages received — at most one per sender, in true arrival order —
// discarding messages from past steps and buffering messages from future
// steps (up to a bounded horizon) or other kinds.
//
// Deduplication per sender is a safety requirement, not an optimisation: a
// Byzantine node could otherwise fill an entire quorum with its own copies
// and fully control the aggregation input.
type Collector struct {
	ep  Endpoint
	buf map[collectorKey]*arrivalBuf // (kind, step) → messages in receipt order

	// Validator, when non-nil, vets every inbound message before it can
	// count toward any quorum. Messages failing validation are dropped —
	// this is where honest nodes discard malformed Byzantine payloads
	// (wrong dimension, NaN/Inf coordinates) so they behave like silence
	// rather than poisoning downstream arithmetic.
	Validator func(Message) bool

	// Horizon bounds how many steps ahead of the one being collected a
	// message may be and still get buffered (0 means DefaultHorizon).
	// Honest nodes run bulk-synchronously, so they are never more than a
	// step or two ahead; without the bound, a Byzantine sender spraying
	// steps t+1..t+10⁹ would grow the buffer without limit.
	Horizon int

	// Membership, when non-nil, scopes quorums to a roster per epoch:
	// a message counts toward a quorum only if Membership(step, from)
	// holds for the step the message claims. Frames from senders
	// outside the roster in force at that step are dropped and counted
	// — quorum math is always evaluated against the epoch's roster, so
	// a node that left (or has not yet joined) at step t can never fill
	// a slot in step t's aggregation, even if its frames are otherwise
	// well-formed and authenticated.
	Membership func(step int, from string) bool

	// Metrics is where the collector counts, never nil (NewCollector
	// starts it on a fresh handle; assign the node's registry handle
	// before the first Collect). DroppedFuture: messages discarded for
	// claiming a step beyond the buffering horizon. DroppedMalformed:
	// chunk frames discarded for inconsistent shard tags (changed counts,
	// non-tiling offsets, oversized assemblies). DroppedRoster: messages
	// discarded because their sender was outside the roster in force at
	// the message's step. PeakBytes: the most payload bytes buffered at
	// once — whole messages awaiting their quorum plus partial chunk
	// reassemblies, the O(n·d) ceiling the memory experiment compares
	// against the ShardCollector's O(q·shard).
	Metrics *metrics.NodeMetrics

	curBytes int // payload bytes currently buffered
}

// DefaultHorizon is the future-step buffering bound when Horizon is unset —
// orders of magnitude beyond the honest lead (≤ ~2 steps) and still a hard
// memory cap against step-spraying senders.
const DefaultHorizon = 64

// ErrQuorumTimeout wraps every quorum-wait expiry from Collect, CollectAny
// and ShardCollector.Collect, so callers can distinguish "the quorum did
// not fill in time" (retryable: a pinned round can fail over, a rejoiner
// can fall back to its checkpoint) from structural failures like a closed
// endpoint. Match with errors.Is.
var ErrQuorumTimeout = fmt.Errorf("transport: quorum timeout")

type collectorKey struct {
	kind Kind
	step int
}

// arrivalBuf holds one (kind, step)'s quorum candidates exactly as they
// arrived: msgs is receipt-ordered with at most one entry per sender, seen
// is the dedup set behind it, and asm holds per-sender partial chunk
// reassemblies (a sender streaming shards counts as "arrived" only when
// its last shard lands and the whole vector checks out).
type arrivalBuf struct {
	msgs []Message
	seen map[string]struct{}
	asm  map[string]*assembly
}

// assembly is one sender's in-flight chunked vector: parts by shard index,
// joined once all are present and their offsets tile a contiguous range.
type assembly struct {
	parts []Message
	got   int
	bytes int
}

// NewCollector wraps an endpoint.
func NewCollector(ep Endpoint) *Collector {
	return &Collector{ep: ep, buf: make(map[collectorKey]*arrivalBuf), Metrics: metrics.NewNodeMetrics()}
}

func (c *Collector) horizon() int {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return DefaultHorizon
}

// Collect blocks until q distinct-sender messages of the given kind and step
// have been received (counting buffered ones), or the timeout elapses. It
// returns the first q such messages in the order they arrived — "aggregate
// the first q received" from the paper, literally: which vectors enter the
// aggregation, and in what order, is decided by receipt time alone, never
// by map iteration or sender name. Messages for other (kind, step) pairs
// observed while waiting are buffered if current-or-near-future, dropped if
// stale or beyond the horizon.
//
// timeout < 0 blocks indefinitely — the faithful asynchronous-model setting,
// where liveness comes from the quorum bound q ≤ n−f rather than from
// timing. Tests use finite timeouts to convert protocol bugs into failures
// rather than hangs.
func (c *Collector) Collect(kind Kind, step, q int, timeout time.Duration) ([]Message, error) {
	if q <= 0 {
		return nil, nil // an empty quorum is satisfied by silence
	}
	key := collectorKey{kind: kind, step: step}
	var deadline time.Time
	if timeout >= 0 {
		//lint:allow-clock Recv timeouts are wall-clock by contract; liveness never decides values
		deadline = time.Now().Add(timeout)
	}
	for c.Buffered(kind, step) < q {
		wait := time.Duration(-1)
		if timeout >= 0 {
			//lint:allow-clock deadline bookkeeping for the wall-clock timeout above
			wait = time.Until(deadline)
			if wait <= 0 {
				return nil, fmt.Errorf("%w: have %d/%d %s messages for step %d",
					ErrQuorumTimeout, c.Buffered(kind, step), q, kind, step)
			}
		}
		m, ok := c.ep.Recv(wait)
		if !ok {
			//lint:allow-clock discriminates timeout from closure on the wall-clock deadline
			if timeout >= 0 && time.Now().After(deadline) {
				return nil, fmt.Errorf("%w: have %d/%d %s messages for step %d",
					ErrQuorumTimeout, c.Buffered(kind, step), q, kind, step)
			}
			return nil, fmt.Errorf("transport: endpoint closed while collecting %s step %d", kind, step)
		}
		c.store(m, step)
	}
	out := make([]Message, q)
	copy(out, c.buf[key].msgs[:q])
	// The round is decided; drop the remainder for this key (late messages
	// for an already-completed quorum are discarded per the protocol).
	c.releaseKey(c.buf[key])
	delete(c.buf, key)
	return out, nil
}

// CollectAny blocks until ANY single step ≥ minStep has q distinct-sender
// messages of the given kind, and returns those messages (in arrival
// order) together with the step they belong to. This is the rejoin
// discovery primitive: a server restarting from a checkpoint does not know
// how far the live cluster has advanced, so it listens to the traffic in
// flight and latches onto the first step a full quorum materialises for.
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
func (c *Collector) CollectAny(kind Kind, minStep, q int, timeout time.Duration) ([]Message, int, error) {
	if q <= 0 {
		return nil, minStep, nil
	}
	floor := minStep
	var deadline time.Time
	if timeout >= 0 {
		//lint:allow-clock Recv timeouts are wall-clock by contract; liveness never decides values
		deadline = time.Now().Add(timeout)
	}
	for {
		// Lowest already-complete step ≥ floor wins.
		best := -1
		for key, b := range c.buf {
			if key.kind == kind && key.step >= floor && len(b.msgs) >= q &&
				(best < 0 || key.step < best) {
				best = key.step
			}
		}
		if best >= 0 {
			key := collectorKey{kind: kind, step: best}
			out := make([]Message, q)
			copy(out, c.buf[key].msgs[:q])
			c.releaseKey(c.buf[key])
			delete(c.buf, key)
			return out, best, nil
		}
		wait := time.Duration(-1)
		if timeout >= 0 {
			//lint:allow-clock deadline bookkeeping for the wall-clock timeout above
			wait = time.Until(deadline)
			if wait <= 0 {
				return nil, 0, fmt.Errorf("%w: rejoin found no step ≥ %d with %d %s messages",
					ErrQuorumTimeout, floor, q, kind)
			}
		}
		m, ok := c.ep.Recv(wait)
		if !ok {
			//lint:allow-clock discriminates timeout from closure on the wall-clock deadline
			if timeout >= 0 && time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("%w: rejoin found no step ≥ %d with %d %s messages",
					ErrQuorumTimeout, floor, q, kind)
			}
			return nil, 0, fmt.Errorf("transport: endpoint closed while rejoining on %s", kind)
		}
		if m.Kind == kind && m.Step > floor+c.horizon() {
			floor = m.Step - c.horizon()
			c.Advance(floor)
		}
		c.store(m, floor)
	}
}

// Advance drops all buffered messages for steps before the given step, of
// any kind. Nodes call it when entering a new step so stale traffic cannot
// accumulate without bound.
func (c *Collector) Advance(step int) {
	for key, b := range c.buf {
		if key.step < step {
			c.releaseKey(b)
			delete(c.buf, key)
		}
	}
}

func (c *Collector) account(delta int) {
	c.curBytes += delta
	c.Metrics.ObservePeak(c.curBytes)
}

// releaseKey returns every payload byte buffered under b to the accounting.
func (c *Collector) releaseKey(b *arrivalBuf) {
	for _, m := range b.msgs {
		c.account(-8 * len(m.Vec))
	}
	for _, a := range b.asm {
		c.account(-a.bytes)
	}
}

// store buffers m unless it is stale relative to the step being collected
// or beyond the future-step horizon. Chunk messages are reassembled per
// sender first; a sender "arrives" when its last shard lands and the whole
// vector checks out, so the quorum discipline downstream never sees
// partial vectors.
func (c *Collector) store(m Message, currentStep int) {
	if !m.Kind.Valid() {
		return // junk kind: never collected, so never buffer it
	}
	if m.Step < currentStep {
		return // late message from a completed round: discard
	}
	if m.Step > currentStep+c.horizon() {
		c.Metrics.DroppedFuture.Add(1) // step-spraying sender: bound the buffer, count the drop
		return
	}
	if c.Membership != nil && !c.Membership(m.Step, m.From) {
		c.Metrics.DroppedRoster.Add(1) // sender outside the roster in force at this step
		return
	}
	key := collectorKey{kind: m.Kind, step: m.Step}
	b, ok := c.buf[key]
	if !ok {
		b = &arrivalBuf{seen: make(map[string]struct{})}
		c.buf[key] = b
	}
	if _, dup := b.seen[m.From]; dup {
		return // only the first (complete) message per sender counts
	}
	if m.IsShard() {
		whole, done := c.assemble(b, m)
		if !done {
			return // still streaming; nothing arrives until the vector is whole
		}
		m = whole
	}
	if c.Validator != nil && !c.Validator(m) {
		return // malformed payload: treat the sender as silent this round
	}
	b.seen[m.From] = struct{}{}
	b.msgs = append(b.msgs, m)
	c.account(8 * len(m.Vec))
}

// assemble folds one chunk frame into its sender's partial vector and
// returns the reassembled whole message once every shard is present and
// the shards tile a contiguous coordinate range. Inconsistent streams
// (changed shard count, non-tiling offsets, oversized totals) drop the
// whole assembly: a sender that cannot keep its own framing straight is
// treated as silent for the round.
func (c *Collector) assemble(b *arrivalBuf, m Message) (Message, bool) {
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
	vec := make(tensor.Vector, total)
	for _, p := range a.parts {
		copy(vec[p.Shard.Offset:], p.Vec)
	}
	c.account(-a.bytes)
	delete(b.asm, m.From)
	return Message{From: m.From, Kind: m.Kind, Step: m.Step, Vec: vec}, true
}

// Buffered returns how many distinct senders are buffered for (kind, step).
// Exposed for tests and monitoring.
func (c *Collector) Buffered(kind Kind, step int) int {
	b := c.buf[collectorKey{kind: kind, step: step}]
	if b == nil {
		return 0
	}
	return len(b.msgs)
}
