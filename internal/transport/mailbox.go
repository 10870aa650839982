package transport

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// OverflowPolicy selects what a bounded mailbox does when one sender's
// queue is full. The policy is per sender: a fast (or Byzantine) peer can
// only ever fill its own quota, never displace another peer's frames.
type OverflowPolicy uint8

const (
	// Backpressure blocks the producer until the sender's queue has room
	// (or the mailbox closes). On TCP this is the natural policy: the
	// reader goroutine stops reading the socket, the kernel window fills,
	// and the remote Send blocks — per connection, never cluster-wide.
	Backpressure OverflowPolicy = iota
	// DropNewest discards the incoming message, keeping what is queued.
	DropNewest
	// DropOldest discards the sender's oldest queued message to admit the
	// incoming one — the semantically correct choice for this protocol's
	// traffic, where a newer frame from the same sender supersedes an older
	// one (a step-t−1 vector the receiver has not consumed yet is already
	// stale the moment step t's arrives).
	DropOldest
)

// String returns the spec name of the policy.
func (p OverflowPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy resolves a policy spec name.
func ParsePolicy(s string) (OverflowPolicy, error) {
	switch strings.TrimSpace(s) {
	case "backpressure", "block":
		return Backpressure, nil
	case "drop-newest", "dropnewest":
		return DropNewest, nil
	case "drop-oldest", "dropoldest":
		return DropOldest, nil
	default:
		return 0, fmt.Errorf("transport: unknown overflow policy %q (want backpressure | drop-newest | drop-oldest)", s)
	}
}

// DefaultMailboxCap is the per-sender queue bound used when a spec names a
// policy without a cap. Each slot holds one frame, so the worst-case
// buffered payload per peer is Cap × frame size — at the harness dimension
// (2,726 float64 coordinates) 128 slots ≈ 2.8 MiB per peer.
const DefaultMailboxCap = 128

// MailboxConfig bounds a mailbox. The zero value is the unbounded
// "senders never block" mailbox the asynchronous model permits — correct
// for the paper's proofs, and exactly the resource-exhaustion surface a
// live deployment cannot afford (see DESIGN.md, "Actor runtime").
type MailboxConfig struct {
	// Cap is the per-sender queue bound; 0 means unbounded.
	Cap int
	// Policy selects the overflow behaviour when Cap is positive.
	Policy OverflowPolicy
}

// Bounded reports whether the config actually bounds the mailbox.
func (c MailboxConfig) Bounded() bool { return c.Cap > 0 }

// Validate rejects negative caps and unknown policies.
func (c MailboxConfig) Validate() error {
	if c.Cap < 0 {
		return fmt.Errorf("transport: negative mailbox cap %d", c.Cap)
	}
	if c.Policy > DropOldest {
		return fmt.Errorf("transport: unknown overflow policy %d", c.Policy)
	}
	return nil
}

// String renders the config in spec syntax (round-trips ParseMailboxSpec).
func (c MailboxConfig) String() string {
	if !c.Bounded() {
		return "none"
	}
	return fmt.Sprintf("%s:cap=%d", c.Policy, c.Cap)
}

// ParseMailboxSpec parses the -mailbox flag syntax: "none" (unbounded) or
// "policy[:cap=N]" with policy ∈ {backpressure, drop-newest, drop-oldest}
// and N defaulting to DefaultMailboxCap. A repeated cap is refused, as the
// compression and attack spec parsers refuse a repeated parameter.
func ParseMailboxSpec(spec string) (MailboxConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" || spec == "unbounded" {
		return MailboxConfig{}, nil
	}
	name, rest, hasArgs := strings.Cut(spec, ":")
	policy, err := ParsePolicy(name)
	if err != nil {
		return MailboxConfig{}, err
	}
	cfg := MailboxConfig{Cap: DefaultMailboxCap, Policy: policy}
	if hasArgs {
		for i, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || k != "cap" {
				return MailboxConfig{}, fmt.Errorf("transport: bad mailbox spec %q (want policy[:cap=N])", spec)
			}
			if i > 0 {
				return MailboxConfig{}, fmt.Errorf("transport: duplicate parameter %q in mailbox spec %q", k, spec)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return MailboxConfig{}, fmt.Errorf("transport: bad mailbox cap %q (want a positive integer)", v)
			}
			cfg.Cap = n
		}
	}
	return cfg, nil
}

// mailEntry is one queued message, linked into two intrusive lists: the
// global arrival-order chain (what Recv walks) and its sender's chain
// (what DropOldest evicts from).
type mailEntry struct {
	msg          Message
	prev, next   *mailEntry // global arrival order
	pprev, pnext *mailEntry // per-sender order
	peer         *peerQueue
}

// peerQueue is one sender's view of the mailbox: its queued-entry count
// against the cap and the ends of its per-sender chain.
type peerQueue struct {
	count          int
	oldest, newest *mailEntry
}

// Mailbox is a closable message queue with per-sender bounding. Receivers
// always see messages in true arrival order — the property the quorum
// discipline is built on — while each sender's standing in the queue is
// capped independently, so a fast or Byzantine peer saturates its own
// quota and nothing else.
//
// The zero-config mailbox (NewMailbox) is unbounded and never blocks
// senders, matching the asynchronous model's reliable network. A bounded
// mailbox (NewMailboxWith) applies its OverflowPolicy per sender.
type Mailbox struct {
	mu       sync.Mutex
	recvCond *sync.Cond // signalled on enqueue and close
	sendCond *sync.Cond // broadcast on dequeue and close (Backpressure waiters)
	cfg      MailboxConfig

	head, tail *mailEntry
	length     int
	peers      map[string]*peerQueue
	closed     bool
	// free chains unlinked entries (through next) for the next Put to
	// reuse: entries are made only when it is empty, so the mailbox never
	// holds more of them than its peak length.
	free *mailEntry

	// counts is the metrics handle the mailbox increments: overflow and
	// after-Close drops, and (inbound only) the current queue depth.
	// outbox marks a courier outbox, whose overflow is the node's
	// CourierDropped and which publishes no depth — one node fans out
	// over many outboxes, so a single depth number would be meaningless.
	// Both are guarded by mu.
	counts *metrics.NodeMetrics
	outbox bool
}

// NewMailbox returns an empty open unbounded mailbox.
func NewMailbox() *Mailbox { return NewMailboxWith(MailboxConfig{}) }

// NewMailboxWith returns an empty open inbound mailbox with the given
// bounds, counting into a fresh metrics handle.
func NewMailboxWith(cfg MailboxConfig) *Mailbox {
	return newMailbox(cfg, metrics.NewNodeMetrics(), false)
}

// newMailbox builds a mailbox counting into h; outbox makes it one courier
// link's outbound queue.
func newMailbox(cfg MailboxConfig, h *metrics.NodeMetrics, outbox bool) *Mailbox {
	m := &Mailbox{cfg: cfg, peers: make(map[string]*peerQueue), counts: h, outbox: outbox}
	m.recvCond = sync.NewCond(&m.mu)
	m.sendCond = sync.NewCond(&m.mu)
	return m
}

// SetConfig replaces the mailbox bounds. The config is consulted only at
// Put time, so reconfiguring an idle mailbox (e.g. right after ListenTCP,
// before peers connect) is safe; already-queued messages are kept even if
// they exceed a newly lowered cap.
func (m *Mailbox) SetConfig(cfg MailboxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg = cfg
	m.sendCond.Broadcast() // a raised cap may unblock Backpressure waiters
	return nil
}

// Config returns the current bounds.
func (m *Mailbox) Config() MailboxConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// SetMetrics makes h the handle the mailbox counts into from now on
// (attach the node's registry handle before traffic starts).
func (m *Mailbox) SetMetrics(h *metrics.NodeMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts = h
}

// Metrics returns the handle the mailbox counts into: DroppedOverflow
// (CourierDropped for a courier outbox) is every message discarded because
// a sender's queue was at its cap — DropNewest rejections and DropOldest
// evictions both count, Backpressure never overflows — and DroppedClosed
// is every message put after Close.
func (m *Mailbox) Metrics() *metrics.NodeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// dropOverflow counts one overflow discard. Caller holds mu.
func (m *Mailbox) dropOverflow() {
	if m.outbox {
		m.counts.CourierDropped.Add(1)
	} else {
		m.counts.DroppedOverflow.Add(1)
	}
}

// publishDepth publishes an inbound mailbox's queue depth. Caller holds mu.
func (m *Mailbox) publishDepth() {
	if !m.outbox {
		m.counts.SetQueueDepth(m.length)
	}
}

// Put enqueues a message keyed by its From field. Messages put after Close
// are dropped and counted under DroppedClosed (the node has left the
// computation, but the loss stays observable). When the sender's queue is
// at the cap, the overflow policy decides: Backpressure blocks until the
// queue drains or the mailbox closes; DropNewest discards msg; DropOldest
// evicts the sender's oldest queued message to admit msg. Every overflow
// discard increments DroppedOverflow. Put hands msg over: a message it
// discards is released here (Message.Release), as nobody else will see it
// again.
func (m *Mailbox) Put(msg Message) {
	if shed, ok := m.enqueue(msg); ok {
		shed.Release()
	}
}

// enqueue is Put under mu, short of disposing of what it sheds: it returns
// the message to discard, if any.
func (m *Mailbox) enqueue(msg Message) (shed Message, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.counts.DroppedClosed.Add(1)
		return msg, true
	}
	pq := m.peers[msg.From]
	if pq == nil {
		pq = &peerQueue{}
		m.peers[msg.From] = pq
	}
	if m.cfg.Bounded() && pq.count >= m.cfg.Cap {
		switch m.cfg.Policy {
		case Backpressure:
			for pq.count >= m.cfg.Cap && m.cfg.Bounded() && !m.closed {
				m.sendCond.Wait()
			}
			if m.closed {
				m.counts.DroppedClosed.Add(1)
				return msg, true
			}
		case DropNewest:
			m.dropOverflow()
			return msg, true
		case DropOldest:
			evicted := pq.oldest
			m.unlink(evicted)
			m.dropOverflow()
			shed, ok = evicted.msg, true
			m.recycle(evicted)
		}
	}
	e := m.free
	if e != nil {
		m.free = e.next
		e.next = nil
	} else {
		e = new(mailEntry)
	}
	e.msg, e.peer = msg, pq
	if m.tail == nil {
		m.head, m.tail = e, e
	} else {
		e.prev = m.tail
		m.tail.next = e
		m.tail = e
	}
	if pq.newest == nil {
		pq.oldest, pq.newest = e, e
	} else {
		e.pprev = pq.newest
		pq.newest.pnext = e
		pq.newest = e
	}
	pq.count++
	m.length++
	m.publishDepth()
	m.recvCond.Signal()
	return shed, ok
}

// unlink removes e from both chains and the accounting. Caller holds mu.
func (m *Mailbox) unlink(e *mailEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	pq := e.peer
	if e.pprev != nil {
		e.pprev.pnext = e.pnext
	} else {
		pq.oldest = e.pnext
	}
	if e.pnext != nil {
		e.pnext.pprev = e.pprev
	} else {
		pq.newest = e.pprev
	}
	pq.count--
	m.length--
}

// recycle puts an unlinked entry on the free chain, zeroed first so that it
// keeps no vector or lease reachable. Caller holds mu.
func (m *Mailbox) recycle(e *mailEntry) {
	*e = mailEntry{next: m.free}
	m.free = e
}

// Recv dequeues the oldest message across all senders, blocking until one
// is available, the timeout elapses, or the mailbox is closed. A negative
// timeout blocks indefinitely. The boolean is false on timeout or closure;
// a closed mailbox still drains its queued messages first.
func (m *Mailbox) Recv(timeout time.Duration) (Message, bool) {
	var deadline time.Time
	if timeout >= 0 {
		//lint:allow-clock Recv timeouts are wall-clock by contract; liveness never decides values
		deadline = time.Now().Add(timeout)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == nil && !m.closed {
		if timeout < 0 {
			m.recvCond.Wait()
			continue
		}
		//lint:allow-clock deadline bookkeeping for the wall-clock timeout above
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Message{}, false
		}
		timer := time.AfterFunc(remaining, func() {
			m.mu.Lock()
			m.recvCond.Broadcast()
			m.mu.Unlock()
		})
		m.recvCond.Wait()
		timer.Stop()
	}
	if m.head == nil {
		return Message{}, false // closed and drained
	}
	e := m.head
	m.unlink(e)
	msg := e.msg
	m.recycle(e)
	m.publishDepth()
	if m.cfg.Policy == Backpressure {
		m.sendCond.Broadcast()
	}
	return msg, true
}

// Len returns the number of queued messages across all senders.
func (m *Mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.length
}

// Close marks the mailbox closed and wakes all blocked receivers and
// Backpressure waiters. Closing twice is a no-op.
func (m *Mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.close()
}

func (m *Mailbox) close() {
	if m.closed {
		return
	}
	m.closed = true
	m.recvCond.Broadcast()
	m.sendCond.Broadcast()
}

// shut is Close by an endpoint that is going away: no Recv will follow, so
// the messages still queued are released (Message.Release) instead of being
// kept for one. The closing endpoint is the last owner of the frames its
// node never received.
func (m *Mailbox) shut() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.close()
	for e := m.head; e != nil; e = m.head {
		m.unlink(e)
		e.msg.Release()
		m.recycle(e)
	}
	m.publishDepth()
}
