package transport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Endpoint is one node's handle on a network: asynchronous best-effort Send
// and blocking Recv with timeout.
//
// Ownership of the payload: Send borrows m.Vec until it returns — an
// implementation that needs the message afterwards (a queue, a delayed
// delivery, a recording fake) clones it, because the sender goes on to
// mutate or recycle the vector. Recv transfers ownership to the caller: the
// endpoint keeps no reference to a message it has delivered, so the caller
// may hand the vector back to the free list (tensor.Put) when done.
type Endpoint interface {
	// ID returns the node's identifier on the network.
	ID() string
	// Send delivers m to the named node asynchronously. It never blocks on
	// the receiver. An error indicates the destination is unknown or the
	// endpoint is closed; a Byzantine-tolerant caller treats Send errors as
	// best-effort losses.
	Send(to string, m Message) error
	// Recv returns the next inbound message, blocking up to timeout
	// (negative blocks indefinitely). false means timeout or closure.
	Recv(timeout time.Duration) (Message, bool)
	// Close releases the endpoint. Blocked Recv calls return false.
	Close() error
}

// DelayFunc returns the artificial delivery delay for a message from one
// node to another. Used by tests and examples to inject asynchrony into the
// in-process network. A nil DelayFunc means immediate delivery.
type DelayFunc func(from, to string) time.Duration

// ChanNetwork is an in-process network connecting named endpoints through
// mailboxes — unbounded by default, per-sender bounded after SetMailbox.
// Delivery order between two nodes is FIFO when no delay function is
// installed; with delays, messages may be reordered — exactly the
// asynchrony the protocol must tolerate.
type ChanNetwork struct {
	mu    sync.Mutex
	nodes map[string]*chanEndpoint
	// handles holds every node ID's metrics handle. A handle belongs to
	// the ID, not to one endpoint: it outlives Unregister, so a node
	// restarting under its name keeps counting where it left off.
	handles map[string]*metrics.NodeMetrics
	delay   DelayFunc
	mbox    MailboxConfig
	timers  sync.WaitGroup
	closed  bool
}

// NewChanNetwork builds an empty network. delay may be nil.
func NewChanNetwork(delay DelayFunc) *ChanNetwork {
	return &ChanNetwork{
		nodes:   make(map[string]*chanEndpoint),
		handles: make(map[string]*metrics.NodeMetrics),
		delay:   delay,
	}
}

// handle returns id's metrics handle, creating it on first use. Caller
// holds mu.
func (n *ChanNetwork) handle(id string) *metrics.NodeMetrics {
	h := n.handles[id]
	if h == nil {
		h = metrics.NewNodeMetrics()
		n.handles[id] = h
	}
	return h
}

// Register creates the endpoint for the given node ID.
func (n *ChanNetwork) Register(id string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("transport: node %q already registered", id)
	}
	ep := &chanEndpoint{id: id, net: n, box: newMailbox(n.mbox, n.handle(id), false)}
	n.nodes[id] = ep
	return ep, nil
}

// Unregister closes the named endpoint and releases its ID for a later
// Register — the in-process analogue of a crashed process freeing its
// listening socket, which is what lets a killed node restart under the same
// name mid-run. The ID's metrics handle stays, so its drop history carries
// over to the next incarnation; the frames it never received go back to
// the free list. Unknown IDs are a no-op.
func (n *ChanNetwork) Unregister(id string) {
	n.mu.Lock()
	ep, ok := n.nodes[id]
	delete(n.nodes, id)
	n.mu.Unlock()
	if ok {
		ep.box.shut()
	}
}

// SetMailbox bounds every endpoint's inbound mailbox per sender — those
// already registered and those yet to come. With Backpressure the sender's
// goroutine (or the delayed-delivery timer) blocks in Put until the
// receiver drains; with a drop policy the overflow is shed and counted on
// the receiving endpoint. The zero config restores unbounded mailboxes.
func (n *ChanNetwork) SetMailbox(cfg MailboxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mbox = cfg
	for _, ep := range n.nodes {
		if err := ep.box.SetConfig(cfg); err != nil {
			return err
		}
	}
	return nil
}

// SetNodeMetrics makes h the named node's handle — what its inbound
// mailbox (this incarnation's and any later one's) counts overflow and
// closed drops and publishes queue depth into. Attach the node's registry
// handle before traffic starts.
func (n *ChanNetwork) SetNodeMetrics(id string, h *metrics.NodeMetrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handles[id] = h
	if ep, ok := n.nodes[id]; ok {
		ep.box.SetMetrics(h)
	}
}

// Metrics returns the named node's handle: its inbound mailbox's
// DroppedOverflow / DroppedClosed over every incarnation of the ID.
func (n *ChanNetwork) Metrics(id string) *metrics.NodeMetrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handle(id)
}

// Close shuts down every endpoint and waits for in-flight delayed deliveries
// to resolve. Frames no node received — still queued, or delivered after
// the close — go back to the free list (see Mailbox.Put).
func (n *ChanNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	nodes := make([]*chanEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		//lint:allow-maporder close order across endpoints is immaterial
		nodes = append(nodes, ep)
	}
	n.mu.Unlock()
	for _, ep := range nodes {
		ep.box.shut()
	}
	n.timers.Wait()
	return nil
}

func (n *ChanNetwork) deliver(from, to string, m Message) error {
	n.mu.Lock()
	dst, ok := n.nodes[to]
	closed := n.closed
	delay := n.delay
	n.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: network closed")
	}
	if !ok {
		return fmt.Errorf("transport: unknown destination %q", to)
	}
	m = m.Clone() // taken only once there is a mailbox to hand it to
	if delay == nil {
		dst.box.Put(m)
		return nil
	}
	d := delay(from, to)
	if d <= 0 {
		dst.box.Put(m)
		return nil
	}
	n.timers.Add(1)
	time.AfterFunc(d, func() {
		defer n.timers.Done()
		dst.box.Put(m)
	})
	return nil
}

type chanEndpoint struct {
	id  string
	net *ChanNetwork
	box *Mailbox
}

var _ Endpoint = (*chanEndpoint)(nil)

func (e *chanEndpoint) ID() string { return e.id }

func (e *chanEndpoint) Send(to string, m Message) error {
	m.From = e.id
	// Snapshot the payload: this transport delivers by reference, but a
	// sender that keeps training mutates its parameter vector in place while
	// a slow receiver may still be reading the previous broadcast. Messages
	// must be immutable copies — exactly what a real network provides (the
	// TCP transport copies by serialising, so it needs no extra clone).
	return e.net.deliver(e.id, to, m)
}

func (e *chanEndpoint) Recv(timeout time.Duration) (Message, bool) {
	return e.box.Recv(timeout)
}

func (e *chanEndpoint) Close() error {
	e.box.shut()
	return nil
}
