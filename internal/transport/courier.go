package transport

import (
	"fmt"
	"sync"
	"time"

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
// Messages are snapshotted (Message.Clone, into a free-list vector) at the
// Send boundary, because the courier holds them past it and the node keeps
// mutating its vector; the link goroutine returns the snapshot once the
// wrapped Send — which only borrows it — has returned.
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

// Send implements Endpoint: it snapshots m into the destination's outbox
// and returns. The courier goroutine owning that link delivers in FIFO
// order; its Send errors are dropped, as the best-effort network model
// prescribes (the node loops already discard them).
func (c *Couriers) Send(to string, m Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("transport: couriers closed")
	}
	box, ok := c.links[to]
	if !ok {
		box = newMailbox(c.cfg, c.counts, true)
		c.links[to] = box
		c.wg.Add(1)
		go c.run(to, box)
	}
	c.mu.Unlock()
	box.Put(m.Clone())
	return nil
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
		tensor.Put(m.Vec) // Send only borrowed the snapshot taken at enqueue
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
