package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
)

// Glue between the wire codec's compressed frames and the internal/compress
// payload codecs. The split of responsibilities:
//
//   - internal/compress owns the bytes INSIDE a compressed payload and the
//     per-stream state (delta references, top-k error feedback);
//   - codec.go owns the frame AROUND it (the compression extension) and
//     transports the payload opaquely, staying bijective;
//   - this file converts between the two Message representations (raw Vec ↔
//     Comp) and wraps in-process endpoints with the same per-link
//     compression the TCP transport performs inside Send and readLoop.
//
// Compression state is strictly per directed link. On TCP, the encoder
// lives on the outbound connection and the decoder in the accepting
// readLoop, so a redial resets both ends together; on the in-process
// network, Compressor keys encoders by destination and decoders by source.
// A node restarted in process is opened under a fresh Compressor, so it
// starts with fresh codecs: its first delta frame on every link is a
// keyframe, and its peers' delta streams to it fail their reference check
// (dropped, counted malformed) until each heals at its next keyframe.

// CompressMessage replaces m's raw payload with its encoding under enc,
// advancing enc's per-stream state — the one place a raw payload becomes a
// compressed one, for the TCP transport and the Compressor alike. The
// kind/step/shard tags are unchanged — compression is decided per frame and
// composes with chunk streaming. A nil or disabled encoder, an
// already-compressed message, or an empty payload is a no-op.
//
// The encoding is appended to m.Comp.Data[:0] (pass the link's staging
// buffer there), with one exception: when m is a courier snapshot on lease
// and the scheme is stateless, its bytes are the same on every link, so the
// payload is the lease's one encoding — made by the first link to get here,
// shared read-only by the rest, valid until the courier's Send returns.
// Stateful schemes (delta, top-k) encode per link, from the shared snapshot.
func CompressMessage(enc *compress.Encoder, m *Message) error {
	if enc == nil || !enc.Config().Enabled() || m.IsCompressed() || len(m.Vec) == 0 {
		return nil
	}
	var (
		data []byte
		err  error
	)
	if m.sharesEncoding(enc) {
		data, err = m.lease.encoding(enc, m)
	} else {
		data, err = enc.Encode(m.Comp.Data[:0], uint8(m.Kind), int64(m.Step), m.Shard.Offset, m.Vec)
	}
	if err != nil {
		return err
	}
	m.Comp = CompMeta{Scheme: uint8(enc.Config().Scheme), Dim: len(m.Vec), Data: data}
	m.Vec = nil
	return nil
}

// sharesEncoding reports whether CompressMessage(enc, m) takes m's payload
// from its lease instead of encoding into the link's own buffer.
func (m *Message) sharesEncoding(enc *compress.Encoder) bool {
	return m.lease.holds(m.Vec) && enc.Config().Scheme.Stateless()
}

// DecompressMessage expands m's compressed payload back into raw
// coordinates using dec's per-stream state, reusing m.Vec's capacity. A
// plain message is a no-op. On error m is unchanged: the caller drops the
// frame and counts it (compress.ErrMalformed and compress.ErrReference
// discriminate structural garbage from a desynchronised delta stream).
func DecompressMessage(dec *compress.Decoder, m *Message) error {
	if !m.IsCompressed() {
		return nil
	}
	vec, err := dec.Decode(compress.Scheme(m.Comp.Scheme), uint8(m.Kind), int64(m.Step),
		m.Shard.Offset, m.Comp.Dim, m.Comp.Data, m.Vec[:0])
	if err != nil {
		return err
	}
	m.Vec = vec
	m.Comp = CompMeta{}
	return nil
}

// Compressor wraps an in-process Endpoint with per-link payload
// compression, mirroring what TCPNode does inside Send and readLoop so the
// live cluster behaves identically on sockets and channels: outbound
// payloads are encoded with a per-destination Encoder, inbound ones decoded
// with a per-source Decoder, and frames that cannot be expanded are dropped
// and counted instead of delivered. Safe for the same concurrency pattern
// as the endpoints it wraps (one sender loop, one receiver loop): encoder
// and decoder maps are guarded, and each per-link codec is only touched by
// the one goroutine driving that side.
type Compressor struct {
	ep  Endpoint
	cfg compress.Config
	// maxDim bounds the logical dimension an inbound compressed frame may
	// declare (0 = unbounded) — the same anti-amplification line as
	// TCPNode.SetCompression: a 12-byte top-k payload must not expand into
	// a 512 MiB vector on the receiver's behalf.
	maxDim int

	mu   sync.Mutex
	encs map[string]*compLink
	decs map[string]*compress.Decoder

	// counts is where inbound drops are counted (DroppedUnnegotiated,
	// DroppedMalformed); read per frame in Recv, hence the atomic pointer.
	counts atomic.Pointer[metrics.NodeMetrics]
}

// compLink is one outbound link's encoder plus the lock that pins encode
// order to delivery order. The fault injector above this wrapper may call
// Send from timer goroutines (delay spikes), and a delta stream whose wire
// order diverged from its encode order would desynchronise the receiver —
// the same reason TCPNode compresses under its connection write lock.
type compLink struct {
	mu  sync.Mutex
	enc *compress.Encoder
}

var _ Endpoint = (*Compressor)(nil)

// NewCompressor wraps ep. cfg must validate; maxDim bounds inbound declared
// dimensions (0 = no bound, typically the deployment's parameter count).
func NewCompressor(ep Endpoint, cfg compress.Config, maxDim int) (*Compressor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Compressor{
		ep:     ep,
		cfg:    cfg,
		maxDim: maxDim,
		encs:   make(map[string]*compLink),
		decs:   make(map[string]*compress.Decoder),
	}
	c.counts.Store(metrics.NewNodeMetrics())
	return c, nil
}

// ID implements Endpoint.
func (c *Compressor) ID() string { return c.ep.ID() }

// Close implements Endpoint.
func (c *Compressor) Close() error { return c.ep.Close() }

// SetMetrics makes h the handle inbound drops are counted into — the same
// accounting the TCP transport's readLoop performs (attach the node's
// registry handle before traffic starts).
func (c *Compressor) SetMetrics(h *metrics.NodeMetrics) { c.counts.Store(h) }

// Metrics returns the handle the wrapper counts into: DroppedUnnegotiated
// is inbound compressed frames carrying a scheme this wrapper cannot
// decode, DroppedMalformed those whose payload failed to expand
// (structural garbage, a desynchronised delta stream, or an over-limit
// declared dimension).
func (c *Compressor) Metrics() *metrics.NodeMetrics { return c.counts.Load() }

func (c *Compressor) linkFor(to string) *compLink {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.encs[to]
	if l == nil {
		l = &compLink{enc: compress.NewEncoder(c.cfg)}
		c.encs[to] = l
	}
	return l
}

func (c *Compressor) decoderFor(from string) *compress.Decoder {
	c.mu.Lock()
	defer c.mu.Unlock()
	dec := c.decs[from]
	if dec == nil {
		dec = compress.NewDecoder()
		c.decs[from] = dec
	}
	return dec
}

// Send implements Endpoint: the payload is compressed under the (this →
// to) link's encoder before the underlying endpoint ships it. Encode and
// delivery happen under the link lock, so the receiver reconstructs
// stateful streams in exactly the order they were encoded.
func (c *Compressor) Send(to string, m Message) error {
	if !c.cfg.Enabled() {
		return c.ep.Send(to, m)
	}
	l := c.linkFor(to)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := CompressMessage(l.enc, &m); err != nil {
		return fmt.Errorf("transport: compress to %s: %w", to, err)
	}
	return c.ep.Send(to, m)
}

// Recv implements Endpoint: compressed messages are expanded with the
// (from → this) link's decoder before delivery; frames that fail to expand
// are dropped, counted, and never surface to the caller — exactly the
// socket path's behaviour (expandInbound is both paths' one gate). The
// in-process network has no hello to negotiate in: every scheme this build
// can decode counts as announced.
func (c *Compressor) Recv(timeout time.Duration) (Message, bool) {
	var deadline time.Time
	if timeout >= 0 {
		//lint:allow-clock Recv timeouts are wall-clock by contract; liveness never decides values
		deadline = time.Now().Add(timeout)
	}
	for {
		m, ok := c.ep.Recv(timeout)
		if !ok {
			return m, false
		}
		if !m.IsCompressed() || expandInbound(&m, ^uint8(0), c.maxDim, c.decoderFor(m.From), c.Metrics()) {
			return m, true
		}
		if timeout >= 0 {
			//lint:allow-clock deadline bookkeeping for the wall-clock timeout above
			if timeout = time.Until(deadline); timeout < 0 {
				timeout = 0
			}
		}
	}
}

// expandInbound is the one inbound gate for compressed frames, shared by
// the TCP read loop and the Compressor so the two transports cannot drift:
// it expands m in place with the link's decoder and reports whether m may be
// delivered, counting into h otherwise. Announce-then-use: a scheme outside
// caps (the link's hello capability mask), or that this build cannot decode,
// is not negotiated (DroppedUnnegotiated). A declared dimension above maxDim
// (0 = unbounded) is refused before the decoder allocates its expansion, and
// a payload that fails to expand is dropped (both DroppedMalformed).
func expandInbound(m *Message, caps uint8, maxDim int, dec *compress.Decoder, h *metrics.NodeMetrics) bool {
	if s := compress.Scheme(m.Comp.Scheme); !s.Known() || s.Bit()&caps == 0 {
		h.DroppedUnnegotiated.Add(1)
		return false
	}
	if maxDim > 0 && m.Comp.Dim > maxDim {
		h.DroppedMalformed.Add(1)
		return false
	}
	if err := DecompressMessage(dec, m); err != nil {
		h.DroppedMalformed.Add(1)
		return false
	}
	return true
}
