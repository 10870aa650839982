package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// TCPNode is a network endpoint backed by real TCP sockets. Messages are
// length-prefixed binary frames (see codec.go) on long-lived connections —
// the repository's equivalent of the paper's gRPC/protobuf channels, minus
// the reflection, and minus the copies: a payload is raw little-endian
// float64 bits, which on a little-endian host is the vector's own memory,
// so Send hands that memory to the kernel (one writev of frame head +
// payload) and the read loop receives into the vector the receiver keeps.
// The wire path is allocation-free in steady state on the send side and
// takes only that vector — from the free list its receiver returns it to —
// on the read side.
//
// Every outbound connection opens with a hello frame naming the dialer;
// the accepting node pins all traffic on that connection to the hello
// identity and drops frames whose From field disagrees (see codec.go for
// why this matters to the quorum safety argument).
//
// TCPNode satisfies Endpoint, so the live cluster runtime runs unmodified on
// top of either the in-process network or real sockets.
type TCPNode struct {
	id    string
	ln    net.Listener
	peers map[string]string // peer ID → dial address

	mu       sync.Mutex
	conns    map[string]*tcpConn
	reached  map[string]bool // peers a dial has succeeded to at least once
	accepted map[net.Conn]struct{}
	box      *Mailbox
	comp     compress.Config // outbound compression; announced in the hello
	maxDim   int             // inbound declared-dimension bound (0 = none)

	closed    chan struct{}
	closeOnce sync.Once
	readers   sync.WaitGroup
}

var _ Endpoint = (*TCPNode)(nil)

// dialAttempts is how many times a first connection to a peer is tried.
// The back-off between attempts doubles from 50 ms, so nine attempts are
// eight sleeps: 50 ms·(2⁸−1) = 12.75 s of cold-start patience per peer.
const dialAttempts = 9

// tcpConn is one outbound connection: the socket plus a reusable buffer for
// the frame head (header, extensions, sender ID — tens of bytes; the payload
// is written from where it lies, so the buffer never grows to frame size),
// so steady-state sends write one frame with zero allocations. When the
// node compresses, the connection also owns the link's payload encoder and
// a second reusable buffer for the encoded payload (idle for a courier
// broadcast under a stateless scheme, whose frames bring the one encoding
// all links share — see CompressMessage) — per-connection state, so a
// redial resets the sender's error-feedback streams.
type tcpConn struct {
	mu   sync.Mutex // serialises frame writes
	c    net.Conn
	buf  []byte // reused frame-head staging; owned by the connection
	enc  *compress.Encoder
	cbuf []byte // reused compressed-payload staging

	// iov and bufs are the writev argument, kept here so building it
	// allocates nothing; both are cleared before Send returns.
	iov  [2][]byte
	bufs net.Buffers
}

// stage prepares m's frame for flush without touching the socket, so a
// message that violates the frame limits costs the connection nothing.
// direct points the writev at m.Vec's own memory beside the staged head
// (little-endian hosts); otherwise the whole frame is encoded into c.buf —
// the big-endian path, which the tests also drive directly. Callers hold
// c.mu.
func (c *tcpConn) stage(m *Message, direct bool) error {
	var err error
	switch {
	case m.IsCompressed():
		c.buf, err = appendFrameHead(c.buf[:0], m)
		c.iov = [2][]byte{c.buf, m.Comp.Data}
	case direct:
		c.buf, err = appendFrameHead(c.buf[:0], m)
		c.iov = [2][]byte{c.buf, tensor.Bytes(m.Vec)}
	default:
		c.buf, err = AppendMessage(c.buf[:0], m)
		c.iov = [2][]byte{c.buf}
	}
	if err != nil {
		c.iov = [2][]byte{}
	}
	return err
}

// flush writes the staged frame — one writev of head and payload — and
// returns once every byte is in the kernel. It clears the staging on every
// path: the caller's vector is referenced only while the write runs, never
// after Send returns (snapshot semantics).
func (c *tcpConn) flush() error {
	c.bufs = c.iov[:]
	_, err := c.bufs.WriteTo(c.c)
	c.iov, c.bufs = [2][]byte{}, nil
	return err
}

// ListenTCP starts a node listening on addr. peers maps every other node's
// ID to its dial address; the map is copied.
func ListenTCP(id, addr string, peers map[string]string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		id:       id,
		ln:       ln,
		peers:    make(map[string]string, len(peers)),
		conns:    make(map[string]*tcpConn),
		reached:  make(map[string]bool),
		accepted: make(map[net.Conn]struct{}),
		box:      NewMailbox(),
		closed:   make(chan struct{}),
	}
	for k, v := range peers {
		n.peers[k] = v
	}
	n.readers.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's bound listen address (useful with ":0").
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// AddPeer registers (or updates) a peer's dial address after the node has
// started listening — the bootstrap pattern for ephemeral-port deployments
// where the address book only exists once every listener is up.
func (n *TCPNode) AddPeer(id, addr string) error {
	if id == n.id {
		return fmt.Errorf("transport: node %s cannot peer with itself", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = addr
	return nil
}

// ID implements Endpoint.
func (n *TCPNode) ID() string { return n.id }

// SetMetrics makes h the node's handle: the read loops' hardening drops and
// the inbound mailbox's drops and depth are counted into it from then on.
// Like SetCompression, call it between ListenTCP and traffic.
func (n *TCPNode) SetMetrics(h *metrics.NodeMetrics) { n.box.SetMetrics(h) }

// Metrics returns the handle the node counts into — one handle, shared by
// the read loops and the inbound mailbox. ForgedDropped: inbound
// frames whose From field disagreed with the connection's hello identity.
// DroppedUnnegotiated: compressed frames whose scheme was not announced in
// the connection's hello (or is unknown to this build) — negotiation is
// announce-then-use. DroppedMalformed: compressed frames whose payload
// failed to expand (structural garbage or a declared dimension above the
// SetCompression bound). DroppedOverflow / DroppedClosed: frames the
// bounded mailbox discarded under a drop policy (see SetMailbox), and
// frames that raced the node's shutdown.
func (n *TCPNode) Metrics() *metrics.NodeMetrics { return n.box.Metrics() }

// SetMailbox bounds the node's inbound mailbox per sender. With
// Backpressure, a full per-sender queue blocks that connection's readLoop:
// the socket stops being read, the kernel window fills, and the remote's
// Send blocks — flow control per connection, exactly as a production RPC
// channel behaves, never cluster-wide. With a drop policy the readLoop
// keeps draining the socket and the mailbox sheds that sender's frames,
// counted under DroppedOverflow. The zero config restores the unbounded
// mailbox. Like SetCompression, call it between ListenTCP and traffic.
func (n *TCPNode) SetMailbox(cfg MailboxConfig) error { return n.box.SetConfig(cfg) }

// SetCompression configures outbound payload compression and the inbound
// declared-dimension bound. Call it after ListenTCP and before the first
// Send: the capability mask rides the hello frame, so connections opened
// earlier announced nothing and their peers will drop compressed frames as
// un-negotiated. cfg must validate; the `none` config leaves the node
// wire-identical to one that never called SetCompression (capability byte
// 0, plain frames).
//
// maxDim (0 = unbounded) caps the logical dimension an inbound compressed
// frame may declare before the decoder allocates its expansion — pass the
// deployment's parameter count. Without the bound, a 12-byte top-k payload
// claiming 2²⁶ coordinates would cost the receiver a 512 MiB vector; with
// it, expansion is capped by the model the node actually trains.
func (n *TCPNode) SetCompression(cfg compress.Config, maxDim int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if maxDim < 0 {
		return fmt.Errorf("transport: negative compression dimension bound %d", maxDim)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.comp = cfg
	n.maxDim = maxDim
	return nil
}

// Send implements Endpoint: it stages m's frame head in the connection's
// reusable buffer and writes head and payload with one writev, dialing (and
// helloing) on first use. m is only read during the call, and Send returns
// only after every payload byte is in the kernel — the write is the
// snapshot, so the caller may keep mutating m.Vec afterwards.
func (n *TCPNode) Send(to string, m Message) error {
	m.From = n.id
	conn, err := n.conn(to)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.enc != nil && !m.IsCompressed() {
		// Compress under the connection lock: it serialises the encoder and
		// the staging buffer the payload is encoded into.
		own := !m.sharesEncoding(conn.enc)
		m.Comp.Data = conn.cbuf[:0]
		if err := CompressMessage(conn.enc, &m); err != nil {
			return fmt.Errorf("transport: compress to %s: %w", to, err)
		}
		if own {
			conn.cbuf = m.Comp.Data // the staging buffer, grown to fit
		}
	}
	if err := conn.stage(&m, tensor.NativeLE()); err != nil {
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if err := conn.flush(); err != nil {
		// Drop the broken connection so the next Send redials.
		n.dropConn(to, conn)
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// Recv implements Endpoint.
func (n *TCPNode) Recv(timeout time.Duration) (Message, bool) {
	return n.box.Recv(timeout)
}

// Close implements Endpoint: it stops the listener, closes all connections,
// and waits for reader goroutines to exit. Inbound frames the node never
// received go back to the free list. Safe for concurrent callers (a
// cancellation watcher may race a deferred cleanup).
func (n *TCPNode) Close() error {
	var err error
	n.closeOnce.Do(func() { err = n.close() })
	return err
}

func (n *TCPNode) close() error {
	close(n.closed)
	err := n.ln.Close()
	n.mu.Lock()
	for _, c := range n.conns {
		_ = c.c.Close()
	}
	n.conns = make(map[string]*tcpConn)
	// Accepted (inbound) connections must be closed too: their readLoops
	// block reading the next frame and would otherwise keep readers.Wait
	// below — and hence two nodes closing in sequence — deadlocked.
	for c := range n.accepted {
		_ = c.Close()
	}
	n.accepted = make(map[net.Conn]struct{})
	n.mu.Unlock()
	n.box.shut()
	n.readers.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

func (n *TCPNode) conn(to string) (*tcpConn, error) {
	n.mu.Lock()
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	addr, ok := n.peers[to]
	comp := n.comp
	attempts := dialAttempts
	if n.reached[to] {
		attempts = 1
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %q", to)
	}

	// Dial outside the lock (concurrent sends to other peers must not wait
	// on this peer's connection setup), retrying with backoff: peers in a
	// fresh deployment come up in arbitrary order, so the first broadcast
	// of a round regularly races the receivers' listeners. Retrying here is
	// what a production RPC stack (the paper used gRPC) does transparently.
	// The back-off is for that cold start only: a peer that has been reached
	// before and now refuses has finished or crashed, and waiting out the
	// schedule for it (≈12.75 s per peer) would only stall a straggler's
	// remaining broadcasts — one attempt, then the best-effort loss the
	// quorum discipline already tolerates.
	var (
		raw     net.Conn
		err     error
		backoff = 50 * time.Millisecond
	)
	for attempt := 1; ; attempt++ {
		raw, err = net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			break
		}
		if attempt == attempts {
			return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
		}
		select {
		case <-n.closed:
			return nil, fmt.Errorf("transport: node closed while dialing %s", to)
		case <-time.After(backoff):
		}
		backoff *= 2
	}

	// Authenticate the connection before it carries any message: the hello
	// frame binds everything that follows to this node's identity and
	// announces which compression schemes it may use.
	hello, err := AppendHello(nil, n.id, comp.CapMask())
	if err == nil {
		_, err = raw.Write(hello)
	}
	if err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: hello %s (%s): %w", to, addr, err)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.reached[to] = true
	if c, ok := n.conns[to]; ok {
		// A concurrent Send won the race; keep its connection.
		_ = raw.Close()
		return c, nil
	}
	c := &tcpConn{c: raw}
	if comp.Enabled() {
		c.enc = compress.NewEncoder(comp)
	}
	n.conns[to] = c
	return c, nil
}

func (n *TCPNode) dropConn(to string, c *tcpConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, ok := n.conns[to]; ok && cur == c {
		_ = c.c.Close()
		delete(n.conns, to)
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.readers.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		n.readers.Add(1)
		go n.readLoop(conn)
	}
}

// connReader is a read loop's per-connection state, reused by every frame
// of the connection: the buffered reader of one chunk, in which frame heads
// and first chunks are parsed and float32 payloads widened where they lie,
// and the buffer top-k payloads land in, which never leave the loop (such a
// frame is expanded or dropped there). readers recycles both across connections, so
// a deployment that re-dials its mesh every run does not allocate them
// again per link.
type connReader struct {
	br   *bufio.Reader
	comp []byte
}

var readers = sync.Pool{New: func() any { return &connReader{br: bufio.NewReaderSize(nil, readChunkBytes)} }}

// inbound is what a read loop knows of its link beyond the bytes: the peer
// its hello authenticated, the schemes that peer announced, and the node
// whose dimension bound and counters apply. With it readMessage gates a
// float32 frame and widens it where it lies.
type inbound struct {
	n    *TCPNode
	peer string
	caps uint8
}

// errDropped is readMessage's report that the link's gate dropped a frame,
// counted, after reading past it: the read loop reads on.
var errDropped = errors.New("transport: inbound frame dropped")

// maxDim is the node's inbound declared-dimension bound (0 = none).
func (in *inbound) maxDim() int {
	in.n.mu.Lock()
	defer in.n.mu.Unlock()
	return in.n.maxDim
}

// next reads the connection's next frame. A compressed payload aliases the
// reader's buffer until the following call; a float32 one arrives widened.
func (rd *connReader) next(in *inbound) (Message, error) {
	m := Message{Comp: CompMeta{Data: rd.comp}}
	if err := readMessage(rd.br, &m, tensor.NativeLE(), in); err != nil {
		return m, err
	}
	if m.IsCompressed() {
		rd.comp = m.Comp.Data
	}
	return m, nil
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.readers.Done()
	defer func() {
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
		_ = conn.Close()
	}()
	rd := readers.Get().(*connReader)
	rd.br.Reset(conn)
	defer func() {
		rd.br.Reset(nil) // the pooled reader must not pin the closed connection
		readers.Put(rd)
	}()
	// The connection speaks only after identifying itself; a stream that
	// cannot produce a well-formed hello is not a peer.
	peer, caps, err := readHello(rd.br)
	if err != nil {
		return
	}
	in := &inbound{n: n, peer: peer, caps: caps}
	for {
		m, err := rd.next(in)
		if err == errDropped {
			continue
		}
		if err != nil {
			return // peer closed or corrupt stream
		}
		select {
		case <-n.closed:
			return
		default:
		}
		if m.From != peer {
			// Forged sender: the frame claims an identity other than the
			// one this connection authenticated as. Dropping it is what
			// keeps per-sender quorum dedup meaningful.
			n.Metrics().ForgedDropped.Add(1)
			continue
		}
		if m.IsCompressed() && !expandInbound(&m, caps, in.maxDim(), n.Metrics()) {
			continue
		}
		n.box.Put(m)
	}
}
