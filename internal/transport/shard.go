package transport

// Chunked vector streaming. A whole-vector message buffers O(d) coordinates
// per sender at the receiver before any aggregation can begin; at the
// paper's 1,756,426-coordinate dimension that is ~14 MB per sender per
// step, and the receive→aggregate pipeline is fully serialised. Sharding
// splits every outbound vector into fixed coordinate ranges (chunk frames,
// see codec.go), and a Collector built on the same layout (quorum.go)
// aggregates each shard the moment its quorum fills — collector memory drops
// from O(q·d) to O(q·shard) and the aggregation arithmetic overlaps the
// network receive.
// (Whether the aggregation side matches that bound depends on the rule:
// coordinate-wise streamers release each shard after folding it,
// Multi-Krum's retains its q inputs until selection — see gar's
// StreamingRule docs.)
//
// Shard boundaries are derived from (dimension, shard size) alone — never
// negotiated — so every honest node computes the same ShardLayout and a
// receiver can check any frame's claimed extent against its own deployment
// dimension. The layout is what makes aggregation bit-identical at every
// shard size, the one-shard layout (whole-vector framing) included: which
// coordinates form shard s is a pure function of (d, size), independent of
// arrival order and parallelism.

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
// serialising, the in-process network by cloning, the couriers once per
// frame however many links it goes out on), so aliasing the caller's vector
// is safe exactly as it is for whole messages. A layout with one shard
// returns the message unchanged (whole-vector framing).
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

// broadcaster is what an endpoint offers when sending one message to many
// destinations costs it less than that many Sends — Couriers, which
// snapshot (and, for a stateless codec, encode) once per broadcast. It is an
// optional interface, discovered like io.ReaderFrom: Endpoint keeps its four
// methods, and wrappers that embed one simply do not forward it.
type broadcaster interface {
	Broadcast(tos []string, m Message) error
}

// Broadcast sends m to every node in tos as chunk frames of the given shard
// size (whole, when size covers the vector). When ep itself is a
// broadcaster, the vector is split once and each frame is handed over once
// for all destinations; every link still sees its frames in shard order.
// Otherwise this is SendSharded per destination, which for an endpoint
// whose Send is synchronous is already the least work: TCPNode writes from
// the vector's own memory, and ChanNetwork's receivers must each own a copy.
// Every destination is attempted; the first error is returned, and like
// SendSharded's it is a best-effort loss to Byzantine-tolerant callers.
func Broadcast(ep Endpoint, tos []string, m Message, size int) error {
	var first error
	if b, ok := ep.(broadcaster); ok {
		for _, sm := range SplitMessage(m, size) {
			if err := b.Broadcast(tos, sm); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, to := range tos {
		if err := SendSharded(ep, to, m, size); err != nil && first == nil {
			first = err
		}
	}
	return first
}
