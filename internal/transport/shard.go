package transport

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Chunked vector streaming. A whole-vector message buffers O(d) coordinates
// per sender at the receiver before any aggregation can begin; at the
// paper's 1,756,426-coordinate dimension that is ~14 MB per sender per
// step, and the receive→aggregate pipeline is fully serialised. Sharding
// splits every outbound vector into fixed coordinate ranges (chunk frames,
// see codec.go), and the ShardCollector below aggregates each shard the
// moment its quorum fills — collector memory drops from O(n·d) to
// O(q·shard) and the aggregation arithmetic overlaps the network receive.
// (Whether the aggregation side matches that bound depends on the rule:
// coordinate-wise streamers release each shard after folding it,
// Multi-Krum's retains its q inputs until selection — see gar's
// StreamingRule docs.)
//
// Shard boundaries are derived from (dimension, shard size) alone — never
// negotiated — so every honest node computes the same ShardLayout and a
// receiver can check any frame's claimed extent against its own deployment
// dimension. The layout is what makes sharded aggregation bit-identical to
// the whole-vector path: which coordinates form shard s is a pure function
// of (d, size), independent of arrival order and parallelism.

// ShardLayout is the size-derived partition of a d-coordinate vector into
// fixed shards: shard s covers [s·Size, min((s+1)·Size, Dim)). The zero
// value is invalid; build layouts with NewShardLayout.
type ShardLayout struct {
	// Dim is the vector dimension d.
	Dim int
	// Size is the shard width in coordinates; the last shard may be
	// shorter when Size does not divide Dim.
	Size int
}

// NewShardLayout builds the layout for a d-coordinate vector and the given
// shard size. size ≤ 0 or ≥ dim yields the degenerate single-shard layout
// (whole-vector framing).
func NewShardLayout(dim, size int) ShardLayout {
	if size <= 0 || size >= dim {
		size = dim
	}
	return ShardLayout{Dim: dim, Size: size}
}

// Count returns the number of shards, ⌈Dim/Size⌉.
func (l ShardLayout) Count() int {
	if l.Size <= 0 {
		return 0
	}
	return (l.Dim + l.Size - 1) / l.Size
}

// Bounds returns shard s's coordinate range [lo, hi).
func (l ShardLayout) Bounds(s int) (lo, hi int) {
	lo = s * l.Size
	hi = lo + l.Size
	if hi > l.Dim {
		hi = l.Dim
	}
	return lo, hi
}

// CheckMeta reports whether a chunk frame's shard tag and payload length
// agree with this layout — the receiver-side defence that keeps a
// Byzantine sender from claiming arbitrary coordinate ranges.
func (l ShardLayout) CheckMeta(s ShardMeta, payloadLen int) bool {
	if s.Count != l.Count() || s.Index < 0 || s.Index >= s.Count {
		return false
	}
	lo, hi := l.Bounds(s.Index)
	return s.Offset == lo && payloadLen == hi-lo
}

// SplitMessage splits a whole-vector message into its chunk-frame messages
// under the given shard size. Shard payloads are subslices of m.Vec — no
// copies; every Endpoint snapshots at its Send boundary (TCP by
// serialising, the in-process network by cloning), so aliasing the
// caller's vector is safe exactly as it is for whole messages. A layout
// with one shard returns the message unchanged (whole-vector framing).
func SplitMessage(m Message, size int) []Message {
	l := NewShardLayout(len(m.Vec), size)
	n := l.Count()
	if n <= 1 {
		return []Message{m}
	}
	out := make([]Message, n)
	for s := 0; s < n; s++ {
		lo, hi := l.Bounds(s)
		out[s] = Message{
			From: m.From, Kind: m.Kind, Step: m.Step,
			Vec:   m.Vec[lo:hi],
			Shard: ShardMeta{Index: s, Count: n, Offset: lo},
		}
	}
	return out
}

// SendSharded sends m to the named node as a stream of chunk frames of the
// given shard size (whole, when size covers the vector). Splitting happens
// above the Endpoint, so a fault-injecting wrapper sees — and may drop,
// duplicate, reorder or delay — each shard frame independently. Send
// errors are returned for the first failing shard; like whole-vector
// sends, Byzantine-tolerant callers treat them as best-effort losses.
func SendSharded(ep Endpoint, to string, m Message, size int) error {
	for _, sm := range SplitMessage(m, size) {
		if err := ep.Send(to, sm); err != nil {
			return err
		}
	}
	return nil
}

// ShardFold consumes one completed shard quorum: the ordered payloads (and
// their senders) for coordinate range [lo, hi) of the logical vector.
// Payload slices are handed off — the collector never touches them again,
// so a fold may retain them (the streaming Multi-Krum path does).
type ShardFold func(lo, hi int, senders []string, inputs []tensor.Vector) error

// ShardCollector is the incremental-quorum counterpart of Collector: for a
// given (kind, step) it tracks arrival order per (step, shard) and hands
// each shard to the aggregation fold as soon as that shard's first-q
// sender set is complete — at most one entry per sender per shard, in true
// arrival order, exactly the Collector discipline applied per coordinate
// range. Whole-vector messages interoperate: one delivers every shard of
// its sender at once, so a deployment may mix sharded and whole-vector
// senders (and the single-shard layout degenerates to Collector
// behaviour).
//
// Two membership modes, selected per collection:
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
//     injector's reorder holds a frame until its sender's NEXT send to
//     that destination, which in a bulk-synchronous protocol is next
//     step), stalls a pinned round: the whole-vector quorum margin
//     absorbs such a gap by substituting senders, which a pinned shard
//     set by definition cannot. Per-shard mode keeps the margin (a lost
//     shard frame costs its sender that one shard's slot); deployments on
//     lossy links should stream only coordinate-wise rules, or keep
//     whole-vector framing for the pinned phase.
//
// Buffered payload bytes are tracked (Metrics.PeakBytes) so the memory
// experiment can compare this path against the whole-vector Collector.
type ShardCollector struct {
	ep Endpoint

	// Layout is the size-derived shard partition every frame is checked
	// against; frames disagreeing with it are dropped as malformed.
	Layout ShardLayout

	// Validator, when non-nil, vets every inbound message's payload before
	// it can count toward any shard quorum (finiteness, sender identity).
	// Dimension and shard-extent checks are the collector's own job — the
	// validator sees both whole vectors and single shards.
	Validator func(Message) bool

	// Horizon bounds future-step buffering exactly as on Collector
	// (0 means DefaultHorizon).
	Horizon int

	// Membership, when non-nil, scopes quorums to a roster per epoch,
	// exactly as on Collector: a frame counts toward a shard quorum (and
	// can enter a pinned membership) only if Membership(step, from) holds
	// for the step the frame claims.
	Membership func(step int, from string) bool

	// Metrics is where the collector counts, never nil, exactly as on
	// Collector; DroppedMalformed here is frames disagreeing with the shard
	// layout. PeakBytes is the most payload bytes the collector has held at
	// once. Shard buffers are released the moment their quorum is folded,
	// which is what keeps it O(q·shard) instead of O(n·d). It covers the
	// collector's own buffers only: payloads handed to a fold are the
	// fold's memory from then on (coordinate-wise streamers drop them
	// immediately; Multi-Krum's retains its q inputs until selection).
	Metrics *metrics.NodeMetrics

	buf      map[collectorKey]*shardStepBuf
	stored   int
	curBytes int
}

// shardStepBuf holds one (kind, step)'s per-shard quorum candidates.
type shardStepBuf struct {
	slots  []shardSlot
	pinned []string // pinned membership, nil until decided
	folded int      // slots handed to the fold so far
}

// shardSlot is one shard's arrival-ordered candidate set.
type shardSlot struct {
	msgs   []Message
	seen   map[string]struct{}
	folded bool
}

// NewShardCollector wraps an endpoint with the given shard layout.
func NewShardCollector(ep Endpoint, layout ShardLayout) *ShardCollector {
	return &ShardCollector{ep: ep, Layout: layout, buf: make(map[collectorKey]*shardStepBuf),
		Metrics: metrics.NewNodeMetrics()}
}

func (c *ShardCollector) horizon() int {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return DefaultHorizon
}

// StoredFrames returns how many frames have been buffered so far — the
// receive-progress counter the memory experiment reads from its fold
// callback to decide whether an aggregation overlapped the receive stream.
func (c *ShardCollector) StoredFrames() int { return c.stored }

func (c *ShardCollector) account(delta int) {
	c.curBytes += delta
	c.Metrics.ObservePeak(c.curBytes)
}

// ResetRound discards all buffered state for one (kind, step) round —
// including a decided pinned membership. This is the failover primitive
// behind the pinned-mode liveness caveat: when a pinned member goes
// silent mid-round, the round as pinned can never complete, so the
// caller abandons it, resets, and re-collects with a fresh pin drawn
// from the senders still alive (after a roster change, the epoch's next
// roster). Frames already folded into the caller's streamer are gone
// with the streamer; the retry starts from zero arrivals.
func (c *ShardCollector) ResetRound(kind Kind, step int) {
	key := collectorKey{kind: kind, step: step}
	if b := c.buf[key]; b != nil {
		c.release(b)
		delete(c.buf, key)
	}
}

// Advance drops all buffered state for steps before the given step.
func (c *ShardCollector) Advance(step int) {
	for key, b := range c.buf {
		if key.step < step {
			c.release(b)
			delete(c.buf, key)
		}
	}
}

// release returns every buffered payload byte of b to the accounting.
func (c *ShardCollector) release(b *shardStepBuf) {
	for i := range b.slots {
		c.releaseSlot(&b.slots[i])
	}
}

func (c *ShardCollector) releaseSlot(s *shardSlot) {
	for _, m := range s.msgs {
		c.account(-8 * len(m.Vec))
	}
	s.msgs = nil
	s.seen = nil
}

// Collect blocks until every shard of the given (kind, step) has been
// folded, or the timeout elapses. q is the network quorum per shard; when
// self is non-nil it is this node's own vector, prepended (as sender
// selfID, position 0) to every shard's inputs — the contraction round's
// "own vector included" without a loopback message. pinned selects the
// membership mode (see the type comment). The returned slice is the pinned
// ordered membership (nil in per-shard mode); it excludes selfID.
//
// timeout < 0 blocks indefinitely, as on Collector.
func (c *ShardCollector) Collect(kind Kind, step, q int, self tensor.Vector, selfID string,
	pinned bool, fold ShardFold, timeout time.Duration) ([]string, error) {
	count := c.Layout.Count()
	if count <= 0 || c.Layout.Dim <= 0 {
		return nil, fmt.Errorf("transport: shard collect needs a valid layout, got %+v", c.Layout)
	}
	if self != nil && len(self) != c.Layout.Dim {
		return nil, fmt.Errorf("transport: self vector has dimension %d, layout %d", len(self), c.Layout.Dim)
	}
	if q <= 0 {
		// Satisfied by silence; with a self vector the aggregation still
		// runs over the local input alone.
		if self == nil {
			return nil, nil
		}
		for s := 0; s < count; s++ {
			lo, hi := c.Layout.Bounds(s)
			if err := fold(lo, hi, []string{selfID}, []tensor.Vector{self[lo:hi]}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	key := collectorKey{kind: kind, step: step}
	b := c.buf[key]
	if b == nil {
		b = &shardStepBuf{slots: make([]shardSlot, count)}
		c.buf[key] = b
	}
	var deadline time.Time
	if timeout >= 0 {
		//lint:allow-clock Recv timeouts are wall-clock by contract; liveness never decides values
		deadline = time.Now().Add(timeout)
	}
	// One sweep up front consumes whatever previous collections buffered;
	// after that, slots are re-examined only when a frame for THIS
	// (kind, step) lands — frames buffered for other rounds cost no sweep.
	if err := c.progress(b, q, self, selfID, pinned, fold); err != nil {
		return nil, err
	}
	for b.folded < count {
		wait := time.Duration(-1)
		if timeout >= 0 {
			//lint:allow-clock deadline bookkeeping for the wall-clock timeout above
			wait = time.Until(deadline)
			if wait <= 0 {
				return nil, fmt.Errorf("%w: %d/%d %s shards folded for step %d",
					ErrQuorumTimeout, b.folded, count, kind, step)
			}
		}
		m, ok := c.ep.Recv(wait)
		if !ok {
			//lint:allow-clock discriminates timeout from closure on the wall-clock deadline
			if timeout >= 0 && time.Now().After(deadline) {
				return nil, fmt.Errorf("%w: %d/%d %s shards folded for step %d",
					ErrQuorumTimeout, b.folded, count, kind, step)
			}
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
	pinnedOut := b.pinned
	delete(c.buf, key)
	return pinnedOut, nil
}

// progress folds every shard whose quorum is complete under the current
// membership mode.
func (c *ShardCollector) progress(b *shardStepBuf, q int, self tensor.Vector, selfID string,
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
		if slot.folded {
			continue
		}
		var senders []string
		var inputs []tensor.Vector
		switch {
		case pinned:
			// Allocation-free completeness probe first: most sweeps find a
			// member still in flight, and should cost q map lookups, not a
			// slice build.
			ready := true
			for _, id := range b.pinned {
				if _, ok := slot.seen[id]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			ordered := slotByPinned(slot, b.pinned)
			senders = make([]string, 0, len(b.pinned)+1)
			inputs = make([]tensor.Vector, 0, len(b.pinned)+1)
			if self != nil {
				senders = append(senders, selfID)
			}
			senders = append(senders, b.pinned...)
			inputs = ordered
		case len(slot.msgs) >= q:
			senders = make([]string, 0, q+1)
			inputs = make([]tensor.Vector, 0, q+1)
			if self != nil {
				senders = append(senders, selfID)
			}
			for _, m := range slot.msgs[:q] {
				senders = append(senders, m.From)
				inputs = append(inputs, m.Vec)
			}
		default:
			continue
		}
		lo, hi := c.Layout.Bounds(s)
		if self != nil {
			inputs = append([]tensor.Vector{self[lo:hi]}, inputs...)
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

// slotByPinned returns the slot's payloads reordered to the pinned
// membership, or nil while any member is missing.
func slotByPinned(slot *shardSlot, pinned []string) []tensor.Vector {
	out := make([]tensor.Vector, len(pinned))
	for i, id := range pinned {
		found := false
		for _, m := range slot.msgs {
			if m.From == id {
				out[i] = m.Vec
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// prune drops buffered shards from senders outside the pinned membership —
// their payloads can never enter this step's aggregation, so holding them
// would surrender the memory bound to late senders.
func (c *ShardCollector) prune(b *shardStepBuf) {
	member := make(map[string]struct{}, len(b.pinned))
	for _, id := range b.pinned {
		member[id] = struct{}{}
	}
	for i := range b.slots {
		slot := &b.slots[i]
		if slot.folded {
			continue
		}
		kept := slot.msgs[:0]
		for _, m := range slot.msgs {
			if _, ok := member[m.From]; ok {
				kept = append(kept, m)
			} else {
				c.account(-8 * len(m.Vec))
				delete(slot.seen, m.From)
			}
		}
		for j := len(kept); j < len(slot.msgs); j++ {
			slot.msgs[j] = Message{}
		}
		slot.msgs = kept
	}
}

// store buffers m's shard (or, for a whole-vector message, every shard)
// unless it is stale, beyond the horizon, malformed, or duplicated.
func (c *ShardCollector) store(m Message, currentStep int) {
	if !m.Kind.Valid() {
		return
	}
	if m.Step < currentStep {
		return
	}
	if m.Step > currentStep+c.horizon() {
		c.Metrics.DroppedFuture.Add(1)
		return
	}
	if c.Membership != nil && !c.Membership(m.Step, m.From) {
		c.Metrics.DroppedRoster.Add(1)
		return
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
		return
	}
	key := collectorKey{kind: m.Kind, step: m.Step}
	b := c.buf[key]
	if b == nil {
		b = &shardStepBuf{slots: make([]shardSlot, c.Layout.Count())}
		c.buf[key] = b
	}
	c.stored++
	if m.IsShard() {
		c.storeSlot(b, m.Shard.Index, m)
		return
	}
	// A whole-vector message delivers every shard of its sender at once;
	// the slices share m.Vec's backing array, and the byte accounting
	// splits it across the slots so releases stay balanced.
	for s := range b.slots {
		lo, hi := c.Layout.Bounds(s)
		sm := m
		sm.Vec = m.Vec[lo:hi]
		sm.Shard = ShardMeta{Index: s, Count: len(b.slots), Offset: lo}
		c.storeSlot(b, s, sm)
	}
}

func (c *ShardCollector) storeSlot(b *shardStepBuf, s int, m Message) {
	slot := &b.slots[s]
	if slot.folded {
		return // quorum already decided for this shard; late arrivals are discarded
	}
	if b.pinned != nil {
		member := false
		for _, id := range b.pinned {
			if id == m.From {
				member = true
				break
			}
		}
		if !member {
			return // outside the pinned membership: can never be aggregated
		}
	}
	if slot.seen == nil {
		slot.seen = make(map[string]struct{})
	}
	if _, dup := slot.seen[m.From]; dup {
		return // only the first shard per sender counts toward its quorum
	}
	slot.seen[m.From] = struct{}{}
	slot.msgs = append(slot.msgs, m)
	c.account(8 * len(m.Vec))
}
