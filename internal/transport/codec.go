package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// Hand-rolled binary wire codec for Message — the hot path every byte of
// cluster traffic crosses. Each protocol message is one length-prefixed
// frame:
//
//	offset  size       field
//	0       1          kind (uint8; bit 7 = chunk flag, bit 6 = compressed flag)
//	1       8          step (int64, little-endian two's complement)
//	9       2          from-len (uint16, little-endian)
//	11      4          vec-len (uint32, little-endian, in coordinates)
//	15      from-len   sender ID (raw bytes)
//	15+f    8·vec-len  payload (float64 coordinates, little-endian bits)
//
// When bit 7 of the kind byte is set, the frame is a CHUNK frame carrying
// one coordinate shard of a larger vector, and an 8-byte shard extension is
// inserted between the fixed header and the sender ID:
//
//	offset  size       field (chunk frames only)
//	15      2          shard-index (uint16, little-endian)
//	17      2          shard-count (uint16, little-endian, ≥ 1)
//	19      4          shard-offset (uint32, little-endian, in coordinates)
//	23      from-len   sender ID (raw bytes)
//	23+f    8·vec-len  payload (the shard's coordinates)
//
// When bit 6 is set, the frame is a COMPRESSED frame: the payload is not
// raw float64 coordinates but an opaque byte string produced by an
// internal/compress scheme, expanding to vec-len coordinates. A 5-byte
// compression extension follows the fixed header (after the shard
// extension if both flags are set — compression composes with chunk
// streaming, decided per frame):
//
//	offset  size       field (compressed frames, relative to extension start)
//	+0      1          scheme (uint8, nonzero; see compress.Scheme)
//	+1      4          enc-len (uint32, little-endian, payload BYTES)
//	        from-len   sender ID (raw bytes)
//	        enc-len    payload (scheme-encoded; spec in WIRE.md §9)
//
// The codec transports compressed payloads byte-for-byte and stays
// bijective; expansion is the receiving transport's job (negotiation, then
// DecompressMessage) because delta streams carry per-connection state.
//
// The fixed header carries both variable lengths, so a reader knows the
// exact frame extent after 15 bytes (plus 8 and/or 5 for the extensions) —
// no varints, no reflection, no type descriptors. Coordinates are raw
// IEEE-754 bit patterns: NaN payloads and signed zeros survive
// bit-identically (a Byzantine sender controls every bit it ships, and the
// inbound validator — not the codec — decides what is acceptable). WIRE.md
// is the normative byte-level specification of all frame types and the
// hello handshake.
//
// # Buffer ownership contract
//
// A payload on the wire is little-endian IEEE-754 — on a little-endian
// host, byte for byte the memory of the []float64 it came from — so every
// path moves it at most once per side, in bulk (internal/tensor's
// AppendLE/DecodeLE/Bytes; big-endian hosts fall back to one store per
// coordinate, chosen by the machine, not by an option).
//
// AppendMessage appends to a caller-owned buffer and returns the extended
// slice; the message is only read during the call, so the caller may keep
// mutating m.Vec afterwards (serialisation IS the snapshot — the property
// the node loops rely on to reuse one parameter vector across broadcasts).
// TCPNode.Send keeps that property without the copy: it stages only the
// frame head (appendFrameHead) and hands the kernel m.Vec's own bytes in
// the same writev, returning once every byte has been written — the vector
// is referenced during the call and never after.
// DecodeMessage and ReadMessage write into a caller-owned Message, reusing
// m.Vec's (or m.Comp.Data's) capacity when it suffices and reallocating when
// it does not; m.From is only reassigned when the sender actually changed,
// so decoding a stream from one peer into one reused Message allocates
// nothing in steady state. ReadMessage reads the bulk of a payload from the
// reader directly into that destination, which — when m brings no capacity,
// as in the TCP read loop — it takes from the vector free list (tensor.Get)
// and hands to m's owner. Neither the input buffer, nor the reader's own
// buffers, nor the scratch buffer is ever retained: decoded messages alias
// nothing.
//
// # Hardening
//
// Frames declaring more than MaxFromLen sender bytes or MaxVecLen
// coordinates — or shard/compression extension fields outside their limits
// — are rejected before any allocation. Within the limits ReadMessage
// commits memory only as body bytes actually arrive: the first body chunk
// (readChunkBytes) is staged through the scratch buffer, and the
// destination is committed only once it has landed — exact-size (and from
// the free list, which grows no size class on a reader's behalf) up to
// preallocCoords, geometrically (at most twice the bytes received so far)
// beyond. A Byzantine peer therefore cannot make a receiver reserve memory
// it never pays for in traffic: a header alone pins at most one staging
// chunk. Truncated frames surface as io.ErrUnexpectedEOF from ReadMessage
// and ErrShortFrame from DecodeMessage.
const (
	// FrameHeaderSize is the fixed frame header length in bytes.
	FrameHeaderSize = 15
	// ShardHeaderSize is the length of the shard extension chunk frames
	// carry after the fixed header.
	ShardHeaderSize = 8
	// MaxFromLen bounds the sender-ID length a frame may declare.
	MaxFromLen = 255
	// MaxVecLen bounds the coordinate count a frame may declare (512 MiB of
	// payload) — far above the paper's 1,756,426-parameter model, far below
	// an allocation that could take a receiver down.
	MaxVecLen = 1 << 26
	// MaxShardCount bounds the shard count a chunk frame may declare (the
	// largest value its uint16 wire field holds).
	MaxShardCount = 1<<16 - 1
	// CompHeaderSize is the length of the compression extension compressed
	// frames carry ({scheme uint8, enc-len uint32}).
	CompHeaderSize = 5
	// MaxCompSlack bounds how far a compressed payload may exceed the raw
	// encoding of its declared range: every shipped scheme SHRINKS its
	// payload, so enc-len ≤ 8·vec-len + MaxCompSlack caps what a header can
	// make a receiver stage without also capping legitimate scheme headers.
	MaxCompSlack = 64
	// chunkFlag is bit 7 of the kind byte: set on chunk frames. compFlag is
	// bit 6: set on compressed frames. kindFlagMask covers both, so base
	// kinds live in [0, 0x40).
	chunkFlag    = 0x80
	compFlag     = 0x40
	kindFlagMask = chunkFlag | compFlag
)

// ErrShortFrame reports a frame shorter than its header declares.
var ErrShortFrame = fmt.Errorf("transport: short frame")

// EncodedSize returns the exact frame length AppendMessage would produce.
func EncodedSize(m *Message) int {
	n := FrameHeaderSize + len(m.From)
	if m.IsShard() {
		n += ShardHeaderSize
	}
	if m.IsCompressed() {
		n += CompHeaderSize + len(m.Comp.Data)
	} else {
		n += 8 * len(m.Vec)
	}
	return n
}

// checkShardMeta validates the shard extension fields against their wire
// widths and internal consistency. Used symmetrically by the encoder (so no
// frame is emitted that a receiver would reject) and the decoder.
func checkShardMeta(index, count, offset, vecLen int) error {
	if count < 1 || count > MaxShardCount {
		return fmt.Errorf("transport: shard count %d outside [1, %d]", count, MaxShardCount)
	}
	if index < 0 || index >= count {
		return fmt.Errorf("transport: shard index %d outside [0, %d)", index, count)
	}
	if offset < 0 || offset > MaxVecLen-vecLen {
		return fmt.Errorf("transport: shard [%d, %d) exceeds the %d-coordinate limit",
			offset, offset+vecLen, MaxVecLen)
	}
	return nil
}

// AppendMessage appends m's wire frame to buf and returns the extended
// slice (append semantics: the result may alias buf's array or a grown
// one). Messages with Shard.Count > 0 are framed as chunk frames; messages
// with Comp.Scheme != 0 as compressed frames (Vec must be empty — the
// payload is Comp.Data and the vec-len field carries Comp.Dim). It errors
// on messages that violate the frame limits rather than emit a frame no
// receiver would accept.
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
	buf, err := appendFrameHead(buf, m)
	if err != nil {
		return buf, err
	}
	if m.IsCompressed() {
		return append(buf, m.Comp.Data...), nil
	}
	return tensor.AppendLE(buf, m.Vec), nil
}

// appendFrameHead appends everything of m's frame that precedes the
// payload — fixed header, extensions, sender ID — after validating m
// against the frame limits (buf is returned unextended on error). The
// payload that must follow is m.Comp.Data for a compressed message and
// m.Vec's little-endian encoding otherwise; TCPNode.Send writes it from
// where it already lies instead of copying it behind the head.
func appendFrameHead(buf []byte, m *Message) ([]byte, error) {
	if len(m.From) > MaxFromLen {
		return buf, fmt.Errorf("transport: sender ID %d bytes exceeds limit %d", len(m.From), MaxFromLen)
	}
	if m.Kind&kindFlagMask != 0 {
		// Bits 6–7 of the kind byte discriminate the frame type on the wire;
		// a kind carrying either would make the frame ambiguous.
		return buf, fmt.Errorf("transport: kind %d collides with the frame flag bits", m.Kind)
	}
	vecLen := len(m.Vec)
	if m.IsCompressed() {
		if vecLen != 0 {
			return buf, fmt.Errorf("transport: compressed message also carries %d raw coordinates", vecLen)
		}
		if err := checkCompMeta(m.Comp.Scheme, m.Comp.Dim, len(m.Comp.Data)); err != nil {
			return buf, err
		}
		vecLen = m.Comp.Dim
	}
	if vecLen > MaxVecLen {
		return buf, fmt.Errorf("transport: payload %d coordinates exceeds limit %d", vecLen, MaxVecLen)
	}
	var hdr [maxFrameHeadSize]byte
	hdr[0] = byte(m.Kind)
	binary.LittleEndian.PutUint64(hdr[1:], uint64(int64(m.Step)))
	binary.LittleEndian.PutUint16(hdr[9:], uint16(len(m.From)))
	binary.LittleEndian.PutUint32(hdr[11:], uint32(vecLen))
	hdrLen := FrameHeaderSize
	if m.IsShard() {
		if err := checkShardMeta(m.Shard.Index, m.Shard.Count, m.Shard.Offset, vecLen); err != nil {
			return buf, err
		}
		hdr[0] |= chunkFlag
		binary.LittleEndian.PutUint16(hdr[15:], uint16(m.Shard.Index))
		binary.LittleEndian.PutUint16(hdr[17:], uint16(m.Shard.Count))
		binary.LittleEndian.PutUint32(hdr[19:], uint32(m.Shard.Offset))
		hdrLen += ShardHeaderSize
	}
	if m.IsCompressed() {
		hdr[0] |= compFlag
		hdr[hdrLen] = m.Comp.Scheme
		binary.LittleEndian.PutUint32(hdr[hdrLen+1:], uint32(len(m.Comp.Data)))
		hdrLen += CompHeaderSize
	}
	buf = append(buf, hdr[:hdrLen]...)
	return append(buf, m.From...), nil
}

// frameExtent validates a header and returns the step, sender and payload
// lengths. Every field is checked on its wire-width value BEFORE the int
// conversion: on a 32-bit platform, int(uint32 ≥ 2³¹) would go negative
// and sail under a signed comparison (a slice-bounds panic downstream),
// and a 64-bit step would silently truncate — aliasing a Byzantine step
// 2³²+k onto the Collector's step k and breaking the codec's re-encode
// bijectivity.
func frameExtent(hdr []byte) (step, fromLen, vecLen int, err error) {
	rawStep := int64(binary.LittleEndian.Uint64(hdr[1:]))
	rawFrom := binary.LittleEndian.Uint16(hdr[9:])
	rawVec := binary.LittleEndian.Uint32(hdr[11:])
	if int64(int(rawStep)) != rawStep {
		return 0, 0, 0, fmt.Errorf("transport: frame step %d overflows this platform's int", rawStep)
	}
	if rawFrom > MaxFromLen {
		return 0, 0, 0, fmt.Errorf("transport: frame declares %d-byte sender ID (limit %d)", rawFrom, MaxFromLen)
	}
	if rawVec > MaxVecLen {
		return 0, 0, 0, fmt.Errorf("transport: frame declares %d coordinates (limit %d)", rawVec, MaxVecLen)
	}
	return int(rawStep), int(rawFrom), int(rawVec), nil
}

// shardExtent parses and validates the 8-byte shard extension of a chunk
// frame against the payload length the fixed header declared.
func shardExtent(ext []byte, vecLen int) (ShardMeta, error) {
	s := ShardMeta{
		Index:  int(binary.LittleEndian.Uint16(ext[0:])),
		Count:  int(binary.LittleEndian.Uint16(ext[2:])),
		Offset: int(binary.LittleEndian.Uint32(ext[4:])),
	}
	if err := checkShardMeta(s.Index, s.Count, s.Offset, vecLen); err != nil {
		return ShardMeta{}, err
	}
	return s, nil
}

// checkCompMeta validates the compression extension fields, symmetrically on
// both sides like checkShardMeta. The scheme byte is NOT checked against the
// schemes this build knows: an unknown scheme is a well-formed frame whose
// payload the codec transports opaquely — dropping it is the receiving
// node's negotiation decision, not a codec error. The enc-len bound is the
// anti-amplification line: no compressed frame may declare a payload larger
// than the raw encoding of its range (plus fixed slack for scheme headers),
// so a header cannot make a receiver stage more than the plain frame of the
// same dimension would.
func checkCompMeta(scheme uint8, dim, encLen int) error {
	if scheme == 0 {
		return fmt.Errorf("transport: compressed frame declares scheme 0")
	}
	if dim < 1 || dim > MaxVecLen {
		return fmt.Errorf("transport: compressed frame declares %d coordinates (want [1, %d])", dim, MaxVecLen)
	}
	if encLen > 8*dim+MaxCompSlack {
		return fmt.Errorf("transport: compressed payload %d bytes exceeds the %d-coordinate bound %d",
			encLen, dim, 8*dim+MaxCompSlack)
	}
	return nil
}

// DecodeMessage parses one frame from the front of data into m and returns
// the number of bytes consumed. data is never retained. Errors: ErrShortFrame
// when data ends before the declared extent, a limit error when the header
// declares an oversized frame.
func DecodeMessage(data []byte, m *Message) (int, error) {
	if len(data) < FrameHeaderSize {
		return 0, ErrShortFrame
	}
	step, fromLen, vecLen, err := frameExtent(data[:FrameHeaderSize])
	if err != nil {
		return 0, err
	}
	hdrLen := FrameHeaderSize
	var shard ShardMeta
	if data[0]&chunkFlag != 0 {
		if len(data) < FrameHeaderSize+ShardHeaderSize {
			return 0, ErrShortFrame
		}
		if shard, err = shardExtent(data[FrameHeaderSize:], vecLen); err != nil {
			return 0, err
		}
		hdrLen += ShardHeaderSize
	}
	if data[0]&compFlag != 0 {
		if len(data) < hdrLen+CompHeaderSize {
			return 0, ErrShortFrame
		}
		ext := data[hdrLen : hdrLen+CompHeaderSize]
		scheme := ext[0]
		rawEnc := binary.LittleEndian.Uint32(ext[1:])
		encLen := int(rawEnc)
		if err := checkCompMeta(scheme, vecLen, encLen); err != nil {
			return 0, err
		}
		hdrLen += CompHeaderSize
		total := hdrLen + fromLen + encLen
		if len(data) < total {
			return 0, ErrShortFrame
		}
		body := data[hdrLen:total]
		m.Kind = Kind(data[0] &^ byte(kindFlagMask))
		m.Step = step
		if from := body[:fromLen]; string(from) != m.From {
			m.From = string(from)
		}
		m.Vec = m.Vec[:0]
		m.Comp = CompMeta{
			Scheme: scheme,
			Dim:    vecLen,
			Data:   append(m.Comp.Data[:0], body[fromLen:]...),
		}
		m.Shard = shard
		return total, nil
	}
	total := hdrLen + fromLen + 8*vecLen
	if len(data) < total {
		return 0, ErrShortFrame
	}
	body := data[hdrLen:total]
	m.Kind = Kind(data[0] &^ chunkFlag)
	m.Step = step
	if from := body[:fromLen]; string(from) != m.From {
		m.From = string(from)
	}
	if cap(m.Vec) >= vecLen {
		m.Vec = m.Vec[:vecLen]
	} else {
		m.Vec = make([]float64, vecLen)
	}
	tensor.DecodeLE(m.Vec, body[fromLen:])
	m.Shard = shard
	m.Comp = CompMeta{}
	return total, nil
}

// readChunkBytes is the size of a frame's FIRST body chunk — sender ID plus
// the leading payload bytes — the only part of a body ReadMessage stages
// through its scratch buffer. Everything after it is read straight into the
// destination (see ReadMessage). preallocCoords is the largest declared
// payload that gets an exact-size allocation (16 MiB — the paper's
// 1,756,426-coordinate model fits with room to spare, so honest traffic
// never pays regrowth copies); larger declarations grow geometrically
// instead. Either way nothing is allocated until the first chunk has
// actually been read, so a receiver's memory tracks what a peer SENDS, not
// what its 15-byte header CLAIMS: a header alone pins one staging chunk,
// and pinning the 16 MiB prealloc costs the attacker that chunk in real
// traffic (256× amplification at worst, per connection, bounded — versus
// the unbounded claim-only reservation a trusting reader would make).
const (
	readChunkBytes = 1 << 16
	preallocCoords = 1 << 21
	// maxFrameHeadSize is the fixed header plus both extensions.
	maxFrameHeadSize = FrameHeaderSize + ShardHeaderSize + CompHeaderSize
)

// ReadMessage reads one frame from r into m. Header, extensions and the
// first body chunk are staged through *scratch (pass the same pointer
// across calls; it never grows beyond readChunkBytes); once that chunk has
// landed the destination is committed and the rest of the payload is read
// directly into it — m.Vec's own memory on a little-endian host, m.Comp.Data
// for a compressed frame — so a payload byte is copied once out of the
// reader, not staged and decoded. Steady-state reads take only the payload
// the receiver keeps, from the free list, and nothing when m's capacity
// suffices; a compressed frame that fits m.Comp.Data's capacity commits
// nothing, so only its sender ID is staged and the whole payload is read
// into place.
// Truncated streams return io.ErrUnexpectedEOF; a clean close before the
// first header byte returns io.EOF. After an error m's payload is
// unspecified (but still aliases neither r nor *scratch).
func ReadMessage(r io.Reader, scratch *[]byte, m *Message) error {
	return readMessage(r, scratch, m, tensor.NativeLE())
}

// readMessage is ReadMessage with the payload path explicit: direct reads
// the remainder of a raw payload into m.Vec's memory (little-endian hosts
// only); otherwise every chunk is staged through *scratch and decoded per
// coordinate — the path a big-endian host takes, exercised directly by the
// tests on any host.
func readMessage(r io.Reader, scratch *[]byte, m *Message, direct bool) error {
	// The header is staged too: a stack array would escape through the
	// io.Reader interface and cost an allocation per frame.
	if cap(*scratch) < maxFrameHeadSize {
		*scratch = make([]byte, maxFrameHeadSize)
	}
	hdr := (*scratch)[:FrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	step, fromLen, vecLen, err := frameExtent(hdr)
	if err != nil {
		return err
	}
	kind := Kind(hdr[0] &^ byte(kindFlagMask))
	chunked, compressed := hdr[0]&chunkFlag != 0, hdr[0]&compFlag != 0
	var shard ShardMeta
	if chunked {
		ext := (*scratch)[:ShardHeaderSize]
		if err := readFull(r, ext); err != nil {
			return err
		}
		if shard, err = shardExtent(ext, vecLen); err != nil {
			return err
		}
	}
	var scheme uint8
	payloadBytes := 8 * vecLen
	if compressed {
		ext := (*scratch)[:CompHeaderSize]
		if err := readFull(r, ext); err != nil {
			return err
		}
		scheme = ext[0]
		payloadBytes = int(binary.LittleEndian.Uint32(ext[1:]))
		if err := checkCompMeta(scheme, vecLen, payloadBytes); err != nil {
			return err
		}
	}

	// First chunk: sender ID plus as much payload as fits beside it, whole
	// coordinates only. This is all a header can make the receiver commit.
	first := (readChunkBytes - fromLen) &^ 7
	if first > payloadBytes {
		first = payloadBytes
	}
	if compressed && cap(m.Comp.Data) >= payloadBytes {
		// The caller's buffer already holds a payload this size (a read loop
		// reuses one per connection): nothing is committed for this frame, so
		// nothing of it needs staging — it is read straight into place below.
		first = 0
	}
	if cap(*scratch) < fromLen+first {
		*scratch = make([]byte, fromLen+first)
	}
	buf := (*scratch)[:cap(*scratch)]
	if err := readFull(r, buf[:fromLen+first]); err != nil {
		return err
	}
	if from := buf[:fromLen]; string(from) != m.From {
		m.From = string(from)
	}
	m.Kind = kind
	m.Step = step
	m.Shard = shard
	head := buf[fromLen : fromLen+first]

	if compressed {
		data := m.Comp.Data[:0]
		if cap(data) < payloadBytes {
			data = make([]byte, 0, commitCap(first, payloadBytes, 8*preallocCoords))
		}
		data = append(data, head...)
		for len(data) < payloadBytes {
			if len(data) == cap(data) {
				data = append(make([]byte, 0, commitCap(len(data), payloadBytes, 8*preallocCoords)), data...)
			}
			next := min(cap(data), payloadBytes)
			if err := readFull(r, data[len(data):next]); err != nil {
				return err
			}
			data = data[:next]
		}
		m.Vec = m.Vec[:0]
		m.Comp = CompMeta{Scheme: scheme, Dim: vecLen, Data: data}
		return nil
	}
	m.Comp = CompMeta{}

	// Raw payload. Reuse the caller's capacity if it suffices (ownership
	// contract); otherwise commit memory only now that a chunk has landed —
	// exact-size and from the free list for honest protocol dimensions
	// (≤ preallocCoords, no regrowth), geometric growth tracking received
	// bytes beyond that. A vector taken here and abandoned by a later read
	// error is left to the garbage collector, never Put: it is half-filled.
	vec := m.Vec[:0]
	if cap(vec) < vecLen {
		if vecLen <= preallocCoords {
			vec = tensor.Get(vecLen)[:0]
		} else {
			vec = make([]float64, 0, commitCap(first/8, vecLen, preallocCoords))
		}
	}
	vec = vec[:first/8]
	tensor.DecodeLE(vec, head)
	for filled := len(vec); filled < vecLen; {
		if filled == cap(vec) {
			vec = append(make([]float64, 0, commitCap(filled, vecLen, preallocCoords)), vec...)
		}
		next := min(cap(vec), vecLen)
		if direct {
			err = readFull(r, tensor.Bytes(vec[filled:next]))
		} else {
			next = min(next, filled+len(buf)/8)
			stage := buf[:8*(next-filled)]
			if err = readFull(r, stage); err == nil {
				tensor.DecodeLE(vec[filled:next], stage)
			}
		}
		if err != nil {
			return err
		}
		vec, filled = vec[:next], next
	}
	m.Vec = vec
	return nil
}

// commitCap is the capacity to commit for a body of total units of which
// have (≥ 1, the first chunk) already landed: all of it when the declared
// size is within prealloc, otherwise double what has arrived.
func commitCap(have, total, prealloc int) int {
	if total <= prealloc {
		return total
	}
	return min(2*have, total)
}

// readFull is io.ReadFull with mid-frame EOF normalised to
// io.ErrUnexpectedEOF (the header already committed the stream to a body).
func readFull(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// The hello frame opens every TCP connection and binds it to one sender
// identity: magic, the dialer's node ID, and one capability byte. The
// receiving node pins every subsequent frame's From field to this identity
// and drops mismatches, so a Byzantine peer cannot forge other senders and
// defeat the Collector's per-sender deduplication (the f-bound safety
// argument counts distinct NODES, not distinct From strings). The binding
// is connection-scoped, not cryptographic: a peer may still claim any
// identity at dial time, but it gets exactly one per connection — and which
// identities may fill which quorum is the receiving node's own
// configuration, checked in the Collector (Collector.Senders).
//
// The capability byte is a bitmask of the compress.Scheme bits the dialer
// may use on THIS connection (bit 1<<s for scheme s; bit 0 unused — plain
// frames need no capability; 0 = plain frames only). Compression is
// negotiated, not assumed: a receiver drops compressed frames whose scheme
// was not announced in the hello (counted DroppedUnnegotiated).
const helloMagic = "GYW2"

// AppendHello appends the hello frame for the given node ID and capability
// mask (0 = plain frames only). Exported alongside AppendMessage so
// adversarial harnesses outside this package can speak the raw wire
// protocol — e.g. hello as one identity and then send frames forging
// another, which TCPNode must drop and count.
func AppendHello(buf []byte, id string, caps uint8) ([]byte, error) {
	if id == "" || len(id) > MaxFromLen {
		return buf, fmt.Errorf("transport: hello ID must be 1..%d bytes, got %d", MaxFromLen, len(id))
	}
	buf = append(buf, helloMagic...)
	buf = append(buf, byte(len(id)))
	buf = append(buf, id...)
	return append(buf, caps), nil
}

// readHello consumes a hello frame and returns the identity every
// subsequent frame on the connection is pinned to and the capability mask.
// The ID length is bounded by its one-byte wire field, so the largest
// allocation a hello can force is MaxFromLen+1 bytes.
func readHello(r io.Reader) (id string, caps uint8, err error) {
	var fixed [len(helloMagic) + 1]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return "", 0, fmt.Errorf("transport: read hello: %w", err)
	}
	if string(fixed[:len(helloMagic)]) != helloMagic {
		return "", 0, fmt.Errorf("transport: bad hello magic %q", fixed[:len(helloMagic)])
	}
	n := int(fixed[len(helloMagic)])
	if n == 0 {
		return "", 0, fmt.Errorf("transport: hello declares empty peer ID")
	}
	rest := make([]byte, n+1) // the ID, then the capability byte
	if _, err := io.ReadFull(r, rest); err != nil {
		return "", 0, fmt.Errorf("transport: read hello ID and capabilities: %w", err)
	}
	return string(rest[:n]), rest[n], nil
}
