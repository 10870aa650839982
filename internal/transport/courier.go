package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Couriers decouples a node loop from its slowest link: Send enqueues the
// message into a per-destination bounded outbox, and a dedicated courier
// goroutine per link performs the real Endpoint.Send. With a drop policy
// the node's broadcast loop never blocks — a stalled or backpressured peer
// costs that one link its freshest frames, not the node its step cadence.
// With Backpressure, Send blocks only when the one link addressed is at
// its cap, which is the policy's contract.
//
// The outbox applies the same MailboxConfig as the inbound mailboxes, so a
// node's worst-case buffering is symmetric: Cap frames per inbound sender
// plus Cap frames per outbound link — O(n·Cap) either way.
//
// A message is snapshotted once (Message.Clone, into a free-list vector) at
// the Broadcast boundary, because the couriers hold it past that and the
// node keeps mutating its vector; every destination's outbox then queues
// that same snapshot under one lease, and whoever disposes of the last
// queued copy — a link goroutine once the wrapped Send, which only borrows
// it, has returned, or an outbox that drops it — returns the snapshot.
type Couriers struct {
	ep  Endpoint
	cfg MailboxConfig

	mu     sync.Mutex
	links  map[string]*Mailbox
	counts *metrics.NodeMetrics // every outbox's overflow lands in its CourierDropped
	closed bool
	wg     sync.WaitGroup
}

var _ Endpoint = (*Couriers)(nil)

// NewCouriers wraps ep. A zero (unbounded) config still decouples sends
// from the wire but never drops; bounded configs apply their policy per
// link. Couriers passes Recv and ID through untouched.
func NewCouriers(ep Endpoint, cfg MailboxConfig) *Couriers {
	return &Couriers{ep: ep, cfg: cfg, links: make(map[string]*Mailbox), counts: metrics.NewNodeMetrics()}
}

// ID implements Endpoint.
func (c *Couriers) ID() string { return c.ep.ID() }

// SetMetrics makes h the handle every link outbox (existing and future)
// counts into (attach the node's registry handle before traffic starts).
func (c *Couriers) SetMetrics(h *metrics.NodeMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts = h
	for _, box := range c.links {
		box.SetMetrics(h)
	}
}

// Metrics returns the handle the couriers count into: CourierDropped is
// the total of outbound frames discarded across all links by the overflow
// policy.
func (c *Couriers) Metrics() *metrics.NodeMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Broadcast enqueues m for every destination in tos and returns: one
// snapshot, leased to len(tos) outboxes. Each link's courier goroutine
// delivers in FIFO order; its Send errors are dropped, as the best-effort
// network model prescribes (the node loops already discard them).
// transport.Broadcast finds this method on the outermost endpoint.
func (c *Couriers) Broadcast(tos []string, m Message) error {
	if len(tos) == 0 {
		return nil
	}
	m = m.Clone()
	if m.Vec != nil {
		m.lease = &lease{vec: m.Vec}
		m.lease.refs.Store(int32(len(tos)))
	}
	for i, to := range tos {
		box, err := c.outbox(to)
		if err != nil {
			for range tos[i:] {
				m.Release() // the shares no outbox took
			}
			return err
		}
		box.Put(m)
	}
	return nil
}

// Send implements Endpoint: a broadcast to one destination.
func (c *Couriers) Send(to string, m Message) error {
	return c.Broadcast([]string{to}, m)
}

// outbox returns the named link's outbox, starting its courier on first use.
func (c *Couriers) outbox(to string) (*Mailbox, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("transport: couriers closed")
	}
	box, ok := c.links[to]
	if !ok {
		box = newMailbox(c.cfg, c.counts, true)
		c.links[to] = box
		c.wg.Add(1)
		go c.run(to, box)
	}
	return box, nil
}

// run is one link's courier: it drains the outbox in order until the
// mailbox is closed and empty, so frames queued at Close still flush.
func (c *Couriers) run(to string, box *Mailbox) {
	defer c.wg.Done()
	for {
		m, ok := box.Recv(-1)
		if !ok {
			return
		}
		_ = c.ep.Send(to, m)
		m.Release() // Send only borrowed the snapshot taken at enqueue
	}
}

// Recv implements Endpoint.
func (c *Couriers) Recv(timeout time.Duration) (Message, bool) {
	return c.ep.Recv(timeout)
}

// Close implements Endpoint: it stops accepting sends, lets every courier
// flush its queued frames, then closes the wrapped endpoint. Safe for
// concurrent callers.
func (c *Couriers) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	links := make([]*Mailbox, 0, len(c.links))
	for _, box := range c.links {
		//lint:allow-maporder close order across links is immaterial
		links = append(links, box)
	}
	c.mu.Unlock()
	for _, box := range links {
		box.Close()
	}
	c.wg.Wait()
	return c.ep.Close()
}

// lease is the snapshot of one broadcast frame, shared read-only by every
// outbox entry of that broadcast. Each queued copy of the message holds one
// share, and whoever disposes of a copy releases it: the link goroutine
// after the wrapped Send, a Mailbox that rejects, evicts or refuses it. The
// last release hands the snapshot — and the encoding, if one was made — back
// to their free lists. A lease travels in Message's unexported field, so it
// passes by value through every wrapper between the couriers and the wire
// without their knowing; a wrapper that keeps a message past Send clones it,
// and the clone holds no share.
type lease struct {
	refs atomic.Int32
	vec  tensor.Vector

	// once guards enc and err: the snapshot's payload under a stateless
	// scheme, which does not depend on the link and so is encoded by
	// whichever link asks first and written to the wire by all of them.
	once sync.Once
	enc  *[]byte // from encBufs
	err  error
}

// encBufs recycles the leases' encoding buffers: at the benchmark's shape a
// step would otherwise allocate 25 broadcasts × 0.83 MB of them.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// holds reports whether v is the leased snapshot itself, not a vector some
// wrapper put in its place.
func (l *lease) holds(v tensor.Vector) bool {
	return l != nil && len(v) > 0 && len(v) == len(l.vec) && &v[0] == &l.vec[0]
}

// encoding returns the snapshot's payload under enc's stateless scheme,
// tagged like m. The caller holds a share; the bytes stay valid until the
// last share is released and must not be written.
func (l *lease) encoding(enc *compress.Encoder, m *Message) ([]byte, error) {
	l.once.Do(func() {
		l.enc = encBufs.Get().(*[]byte)
		// A cold or shorter buffer is replaced at the exact size; left to
		// grow inside Encode it would be allocated twice.
		if need := enc.Config().PayloadBytes(len(l.vec)); cap(*l.enc) < need {
			*l.enc = make([]byte, 0, need)
		}
		*l.enc, l.err = enc.Encode((*l.enc)[:0], uint8(m.Kind), int64(m.Step), m.Shard.Offset, l.vec)
	})
	return *l.enc, l.err
}

// release gives up one share; a nil lease (a message no courier queued) has
// none to give.
func (l *lease) release() {
	if l == nil {
		return
	}
	left := l.refs.Add(-1)
	if left > 0 {
		return
	}
	if left < 0 {
		panic("transport: courier lease released more often than it was shared")
	}
	tensor.Put(l.vec)
	l.vec = nil
	if l.enc != nil {
		encBufs.Put(l.enc)
		l.enc = nil
	}
}
