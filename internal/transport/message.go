package transport

import "repro/internal/tensor"

// Kind discriminates protocol messages.
type Kind uint8

// Message kinds, one per protocol phase.
const (
	// KindParams is a parameter vector sent from a server to a worker
	// (phase 1).
	KindParams Kind = iota + 1
	// KindGradient is a gradient estimate sent from a worker to a server
	// (phase 2).
	KindGradient
	// KindPeerParams is an updated parameter vector exchanged between
	// servers (phase 3, the contraction round).
	KindPeerParams
)

// Valid reports whether k is one of the protocol's message kinds. The wire
// codec transports any kind byte (the format is bijective), but receivers
// only buffer valid kinds: without the check, a Byzantine sender could
// multiply its buffered footprint ~85× by spraying the same step across
// every junk kind value.
func (k Kind) Valid() bool { return k >= KindParams && k <= KindPeerParams }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindParams:
		return "params"
	case KindGradient:
		return "gradient"
	case KindPeerParams:
		return "peer-params"
	default:
		return "unknown"
	}
}

// ShardMeta tags a message as one coordinate shard of a larger vector. The
// zero value (Count == 0) marks a whole-vector message — the only form the
// protocol shipped before chunked streaming, and still the form used when
// the configured shard size covers the full dimension. A shard message's
// Vec holds coordinates [Offset, Offset+len(Vec)) of the logical vector;
// shard boundaries are derived from (dimension, shard size) alone (see
// ShardLayout), never negotiated, so every honest receiver can check a
// frame's claimed extent against its own deployment dimension.
type ShardMeta struct {
	// Index is this shard's position in [0, Count).
	Index int `json:"index"`
	// Count is the total number of shards of the logical vector.
	Count int `json:"count"`
	// Offset is the coordinate offset of this shard's first element.
	Offset int `json:"offset"`
}

// CompMeta tags a message whose payload travels compressed: instead of raw
// float64 coordinates, the frame carries Data — an opaque payload encoded
// by the internal/compress scheme identified by Scheme — that expands to
// Dim coordinates. The zero value (Scheme == 0) marks a plain message. The
// wire codec transports compressed payloads byte-for-byte (the frame
// format stays bijective); EXPANSION is a separate, stateful step
// (DecompressMessage) that the receiving transport performs after
// negotiation checks, because delta streams need per-connection reference
// state the codec deliberately does not own.
type CompMeta struct {
	// Scheme is the compression scheme byte (see compress.Scheme).
	Scheme uint8 `json:"scheme"`
	// Dim is the coordinate count Data expands to — what the frame's
	// vec-len field carries on the wire.
	Dim int `json:"dim"`
	// Data is the encoded payload.
	Data []byte `json:"data"`
}

// Message is the single unit of communication. Every phase of the protocol
// ships one vector tagged with its sender, step and kind; the tag is what
// lets receivers run bulk-synchronous training over an asynchronous network
// (late messages are identified and discarded, future ones buffered). A
// message may carry the whole vector or — when the sender streams in
// coordinate shards — one shard of it, discriminated by Shard.Count; the
// payload is either raw (Vec) or compressed (Comp), never both.
type Message struct {
	// From is the sender's node ID.
	From string `json:"from"`
	// Kind is the protocol phase this message belongs to.
	Kind Kind `json:"kind"`
	// Step is the learning step t the payload belongs to.
	Step int `json:"step"`
	// Vec is the payload (a parameter vector or a gradient, whole or one
	// shard of it per Shard). Nil when the payload is compressed.
	Vec tensor.Vector `json:"vec"`
	// Shard is the chunk-streaming tag; the zero value means the payload
	// covers the whole vector.
	Shard ShardMeta `json:"shard,omitzero"`
	// Comp is the compression tag; the zero value means Vec is raw.
	Comp CompMeta `json:"comp,omitzero"`

	// lease, when non-nil, says Vec is a snapshot the couriers share across
	// the links of one broadcast (see lease in courier.go). It rides along by
	// value through every Endpoint wrapper below the couriers; Clone drops it.
	lease *lease
}

// IsShard reports whether m carries one coordinate shard rather than a
// whole vector.
func (m *Message) IsShard() bool { return m.Shard.Count > 0 }

// IsCompressed reports whether m's payload is compressed (Comp.Data, not
// Vec, is the payload).
func (m *Message) IsCompressed() bool { return m.Comp.Scheme != 0 }

// Clone returns a copy of m whose payload aliases nothing — the snapshot
// every transport must take when it holds a message past its Send boundary
// (the sender keeps mutating its vector in place). The TCP transport gets
// this for free by serialising; the in-process network, the couriers and
// the fault injector's deferred-delivery paths call Clone explicitly. The
// vector comes from the free list (tensor.Get) at exactly len(m.Vec), so
// whoever ends up owning the clone may return it. The clone holds no share
// of a courier lease: it outlives the Send that lent m.
func (m Message) Clone() Message {
	m.lease = nil
	if m.Vec != nil {
		vec := tensor.Get(len(m.Vec))
		copy(vec, m.Vec)
		m.Vec = vec
	}
	if m.Comp.Data != nil {
		m.Comp.Data = append([]byte(nil), m.Comp.Data...)
	}
	return m
}
