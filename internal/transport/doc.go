// Package transport provides the communication substrate of the system:
//
//   - Message, the single wire format exchanged by all nodes — a whole
//     parameter/gradient vector, or (tagged by ShardMeta) one coordinate
//     shard of one when the deployment streams in chunks;
//   - Mailbox, the bounded per-sender inbox every receiving endpoint owns:
//     one global arrival-order FIFO threaded through per-sender chains, a
//     configurable per-sender Cap and an overflow Policy (Backpressure
//     blocks the producer, DropNewest refuses the arriving frame,
//     DropOldest evicts the sender's oldest queued frame), with
//     the DroppedOverflow / DroppedClosed counters of its metrics handle
//     exposing what the bound discarded;
//   - Couriers, the per-link outbound actors: Broadcast snapshots the
//     message once (Clone at enqueue, into a free-list vector) and queues
//     that snapshot, under a reference-counted lease, on one bounded
//     outbox Mailbox per destination; a dedicated goroutine per link
//     drains its outbox into the wrapped Endpoint and gives up its share
//     when that Send comes back — so one slow or dead peer can never stall
//     a node loop or any other link. Send is Broadcast to one destination;
//   - ChanNetwork, an in-process asynchronous network with per-receiver
//     Mailboxes (unbounded by default, bounded via SetMailbox) and
//     optional injected delays (used by the live cluster runtime and the
//     integration tests);
//   - TCPNode, a real TCP transport speaking the hand-rolled binary frame
//     codec of codec.go — fixed {kind, step, from-len, vec-len} header (plus
//     an 8-byte shard extension on chunk frames) and little-endian float64
//     payloads over hello-authenticated connections (the repository's
//     stand-in for the paper's gRPC/protobuf stack, minus the reflection);
//     WIRE.md is the normative byte-level specification;
//   - Collector, the one "first q messages for step t, in arrival order,
//     late ones discarded" quorum-gathering primitive at the heart of
//     GuanYu's bulk-synchronous rounds over an asynchronous network. It
//     keeps that discipline per coordinate shard of a ShardLayout and hands
//     each shard's quorum to a streaming aggregation the moment it fills.
//     Whole-vector framing is the one-shard layout (and there it
//     reassembles senders that stream chunk frames); a sharded layout cuts
//     peak collector memory from O(q·d) to O(q·shard) and overlaps
//     aggregation with the network receive (the aggregation side holds
//     that bound for coordinate-wise rules; see gar.StreamingRule for
//     Multi-Krum's retention floor);
//   - FaultInjector, seeded fault schedules (drops, duplication, reorder
//     holds, delay spikes, step-windowed partitions) derived from pure
//     (seed, step, sender, receiver, shard) hashes, with one schedule shared
//     by the simulator's arrival-time face and the live runtimes' Endpoint
//     wrapper;
//   - LatencyModel, a seeded heavy-tailed latency sampler that drives both
//     delay injection in the live runtime and the virtual clock of the
//     deterministic experiment simulator.
//
// # Actor runtime
//
// Receiving endpoints (TCPNode, ChanNetwork) deliver through a Mailbox and
// honest senders broadcast through Couriers, which makes every node an
// actor with bounded queues on both sides of the wire. The ownership
// contract: the endpoint owns its inbound Mailbox (readers call Recv, never
// Put), Couriers own one outbox per link (callers hand over a message at
// Send and must not mutate it afterwards — Couriers clones defensively at
// enqueue, once per broadcast, so node loops may reuse their broadcast
// vector anyway). Close on
// either side flushes: Recv drains messages accepted before Close, Put
// after Close is refused and counted in DroppedClosed.
//
// Overflow is accounted per sender, which is the property that makes a
// bound Byzantine-safe: a flooding sender can only evict (DropOldest) or
// forfeit (DropNewest) frames in its *own* per-sender chain, never another
// peer's, so honest traffic is untouched however fast the attacker sprays.
// DropOldest is the protocol-safe lossy default because GuanYu's quorums
// only ever want a sender's most recent step — an evicted older frame is
// one that had already been superseded, exactly what the collectors would
// have discarded as stale. Backpressure is lossless but couples the
// producer to the consumer's drain rate; it is the right choice only when
// every peer is trusted to drain (DroppedOverflow stays zero by
// construction, and a parked Put is released by Close).
//
// # Contract and invariants
//
// Arrival order is literal: which messages (and which shards) enter a
// quorum, and in what order, is decided by receipt time alone — never map
// iteration, never sender name. Per-sender deduplication is a safety
// requirement (a Byzantine node must not fill a quorum with copies of
// itself), and the TCP hello binding is what makes From one identity per
// connection rather than a free string per frame. Which identities may fill
// which quorum is the receiving node's own configuration — membership is
// fixed, as in the paper — held by the Collector as a per-kind sender table
// (Collector.Senders): a frame whose (kind, sender) pair the table does not
// list is dropped on arrival, before any buffer, reassembly or validation,
// and counted DroppedRoster, so one process cannot fill a quorum with
// made-up names.
//
// Every Endpoint delivers snapshots: a message handed to Send is immutable
// from the sender's perspective afterwards (TCP snapshots by serialising,
// ChanNetwork by cloning, Couriers by cloning once per broadcast), so node
// loops reuse one vector across broadcasts. Decoded messages alias nothing.
//
// # Broadcast
//
// Every message of the protocol goes to many destinations, and an endpoint
// that queues (Couriers) can pay for that once: Broadcast(ep, tos, m, size)
// splits m into its chunk frames once and, when ep has a
// Broadcast(tos, Message) method, hands each frame over once for all
// destinations — one snapshot per frame, and under a stateless codec
// (float32) one encoding, which CompressMessage takes from the frame's lease
// on every link after the first. Stateful codecs (delta, top-k) still encode
// per link, from the shared snapshot. The method is an optional interface,
// found by type assertion on the outermost endpoint like io.ReaderFrom:
// Endpoint itself did not grow, because wrappers outside this package embed
// it (internal/cluster's heldOpen, the benchmark module's traced endpoint) and a fifth
// method would break them, while a wrapper that hides the method merely
// falls back to the loop. For endpoints whose Send is synchronous that loop
// — SendSharded per destination — is already the least work: TCPNode's Send
// is a writev from the caller's own memory, ChanNetwork's receivers must
// each own a copy. A Byzantine node never broadcasts: it may tell each
// destination something else.
//
// # Vector ownership
//
// Payload vectors come from and go back to one free list (tensor.Get /
// tensor.Put; internal/tensor's package comment has the whole table). This
// package's half of it:
//
//	hand-over                 who owns the vector afterwards
//	------------------------  ------------------------------------------------
//	Endpoint.Send(to, m)      still the caller: Send borrows m.Vec until it
//	                          returns; an endpoint that keeps the message
//	                          longer (Couriers, ChanNetwork, the fault
//	                          injector, a recording fake) clones it first
//	Couriers.Broadcast        still the caller. The couriers' clone belongs to
//	                          its lease: every destination's queued copy holds
//	                          a share, released by the link goroutine after the
//	                          wrapped Send or by the outbox that drops the copy
//	                          (rejected, evicted, put after Close); the last
//	                          release returns the snapshot and, if a stateless
//	                          codec made one, its encoding. Below the couriers
//	                          the message is lent like any other — Clone gives
//	                          a deep copy with no share in the lease
//	Endpoint.Recv             the caller; the endpoint keeps no reference
//	Collector, via Recv       the Collector. A frame it drops before buffering
//	                          (sender not legal for its kind, round already
//	                          decided, stale, beyond the horizon, failing the
//	                          validator, duplicate sender, slot folded,
//	                          outside the pin, pruned when the pin is decided)
//	                          goes back at once; one it buffered goes on a
//	                          spent list when its slot or round is released,
//	                          and Recycle — which the node calls once the
//	                          streamer's Result and the Suspicion report are
//	                          done, and Advance calls for abandoned rounds —
//	                          returns the list
//	ShardFold inputs          the Collector still; a fold may read and retain
//	                          them until that Recycle
//
// Three rules face Byzantine senders. The Collector returns only lengths
// its own layout produces — the dimension, and at a multi-shard layout the
// shard extents — so a frame declaring any other length is dropped to the
// garbage collector and never becomes a size class (Get creates none
// either); it never returns a view into a longer vector (the per-shard
// views of a whole-vector message: the whole goes back, once, when the
// round is released) nor the chunk frames it joined at a one-shard layout
// (their lengths are the sender's choice). The wire reader takes a vector
// only where it allocated before: after the frame's first 64 KiB chunk has
// landed and only up to preallocCoords; a vector a truncated stream left
// half-filled is dropped, not returned. And every vector from the free
// list is written in full before it is read — the decoders always did
// (they reuse dirty capacity), reassembly checks its chunks tile the
// vector, the streamers refuse a Result before their folds tile the
// dimension.
//
// Receivers are hardened against resource-exhaustion from the header alone
// (bounded declared lengths, traffic-paced allocation), against senders
// the node's configuration does not name (the collectors' sender table),
// against step-spraying (the collectors' future-step Horizon), and against
// malformed shard streams (layout checks, tiling checks, assembly caps),
// and — with a bounded Mailbox armed — against flooding (the per-sender
// cap); the ForgedDropped / DroppedRoster / DroppedFuture /
// DroppedMalformed / DroppedOverflow / DroppedClosed counters expose what the hardening
// discarded. They are stored once, in the internal/metrics.NodeMetrics
// handle every counting type owns from construction (its Metrics accessor
// or field; SetMetrics attaches the node's registry handle before traffic
// starts). See WIRE.md §6 for the full statement.
package transport
