package cluster

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The endpoint a node loop runs on is a stack of at most three layers,
// built here and nowhere else (outermost first):
//
//	couriers        StackEndpoint, bounded mailboxes only
//	fault injector  StackEndpoint
//	wire + codec    mesh.open: a ChanNetwork endpoint under a Compressor,
//	                or a TCPNode (OpenTCPNode), which carries its own codec
//
// The codec sits next to the wire — per-link encoder state, inbound drops
// bounded by the model dimension — and the fault injector above it, so a
// delayed or duplicated delivery re-enters an already-encoded stream the way
// it would on a real network. Couriers go on top: the node loop hands each
// frame to per-link bounded outboxes and never blocks on, or is blocked by, a
// slow link. A Byzantine node gets the wire layer alone, with the codec's
// receive half only: it runs the honest receive loop, so it must expand what
// its honest peers send it, while its own payloads stay raw and unfaulted
// (the adversary's covert network is ideal by assumption, exactly as in the
// simulator).

// mesh is the wire under one live run: a channel network or loopback
// sockets, chosen by LiveConfig.TCP.
type mesh interface {
	// open returns id's wire endpoint, counting into h and compressing
	// outbound payloads under comp (the zero config sends raw; inbound
	// compressed frames are expanded either way).
	open(id string, comp compress.Config, h *metrics.NodeMetrics) (transport.Endpoint, error)
	// close takes every endpoint down, which unblocks every Recv, and waits
	// for in-flight deliveries. Idempotent; safe for concurrent callers once
	// the last endpoint is open.
	close()
}

func (c *LiveConfig) mesh() (mesh, error) {
	dim := c.Model.ParamCount()
	if c.TCP {
		return &tcpMesh{dim: dim, mbox: c.Mailbox, book: make(map[string]string)}, nil
	}
	m := &chanMesh{net: transport.NewChanNetwork(c.Delay), codec: c.Compression.Enabled(), dim: dim}
	return m, m.net.SetMailbox(c.Mailbox)
}

// chanMesh is the in-process mesh. An ID may be opened again after
// net.Unregister — the churn cycle's restart.
type chanMesh struct {
	net   *transport.ChanNetwork
	codec bool // the deployment compresses, so every node expands inbound
	dim   int
}

func (m *chanMesh) open(id string, comp compress.Config, h *metrics.NodeMetrics) (transport.Endpoint, error) {
	ep, err := m.net.Register(id)
	if err != nil {
		return nil, err
	}
	m.net.SetNodeMetrics(id, h)
	if !m.codec {
		return ep, nil
	}
	c, err := transport.NewCompressor(ep, comp, m.dim)
	if err != nil {
		return nil, err
	}
	c.SetMetrics(h)
	return c, nil
}

func (m *chanMesh) close() { m.net.Close() }

// tcpMesh is one loopback socket per node on an ephemeral port. A node is
// opened knowing the address book so far and is then entered into it and
// into every earlier node's — the bootstrap a deployment tool would perform.
type tcpMesh struct {
	dim   int
	mbox  transport.MailboxConfig
	nodes []*transport.TCPNode
	book  map[string]string // node ID → listen address
}

// heldOpen is a node's socket as its loop sees it: Close is the mesh's job,
// once every loop has returned. A loop that finished early (one step is
// enough) must still accept the connections of peers whose quorums it was
// not part of — their first dial to a closed listener sits out the
// transport's cold-start back-off, once per finished peer.
type heldOpen struct{ transport.Endpoint }

func (heldOpen) Close() error { return nil }

func (m *tcpMesh) open(id string, comp compress.Config, h *metrics.NodeMetrics) (transport.Endpoint, error) {
	node, err := OpenTCPNode(id, "127.0.0.1:0", m.book, comp, m.dim, m.mbox, h)
	if err != nil {
		return nil, err
	}
	m.book[id] = node.Addr()
	for _, peer := range m.nodes {
		if err := peer.AddPeer(id, m.book[id]); err != nil {
			node.Close()
			return nil, err
		}
	}
	m.nodes = append(m.nodes, node)
	return heldOpen{node}, nil
}

func (m *tcpMesh) close() {
	for _, node := range m.nodes {
		node.Close()
	}
}

// OpenTCPNode starts one node's socket the way every TCP deployment shape
// does — the launcher's mesh, and guanyu.RunNode's single process. Everything
// a peer's first connection depends on is armed before the caller can publish
// the address: outbound compression (the capability mask rides the hello
// frame; dim bounds inbound expansions), the per-sender inbound mailbox bound
// (each receiver's own defense, so Byzantine nodes get it too) and the
// metrics handle, which also carries the bound address (guanyu_node_info).
// peers is the address book as far as it is known (AddPeer takes the rest);
// the caller closes the node.
func OpenTCPNode(id, listen string, peers map[string]string, comp compress.Config, dim int,
	mbox transport.MailboxConfig, h *metrics.NodeMetrics) (*transport.TCPNode, error) {
	node, err := transport.ListenTCP(id, listen, peers)
	if err != nil {
		return nil, err
	}
	if comp.Enabled() {
		err = node.SetCompression(comp, dim)
	}
	if err == nil && mbox.Bounded() {
		err = node.SetMailbox(mbox)
	}
	if err != nil {
		node.Close()
		return nil, fmt.Errorf("cluster: node %s: %w", id, err)
	}
	node.SetMetrics(h)
	h.SetAddr(node.Addr())
	return node, nil
}

// StackEndpoint puts an honest node's send path on top of its wire
// endpoint: the fault injector (nil injects nothing), then — when mailboxes
// are bounded — per-link couriers counting into h. Closing the result
// flushes reorder-held, delay-spiked and courier-queued frames before it
// closes ep.
func StackEndpoint(ep transport.Endpoint, faults *transport.FaultInjector,
	mbox transport.MailboxConfig, h *metrics.NodeMetrics) transport.Endpoint {
	ep = faults.Wrap(ep)
	if mbox.Bounded() {
		c := transport.NewCouriers(ep, mbox)
		c.SetMetrics(h)
		ep = c
	}
	return ep
}
