// Package cluster implements the live node runtime of GuanYu: one goroutine
// per parameter server and per worker, communicating through a
// transport.Endpoint (in-process or TCP), executing the three-phase protocol
// of the paper with quorum-based progress — no timing assumptions beyond the
// per-collect safety timeout used to convert bugs into test failures.
//
// Protocol, per step t (Figure 2 of the paper):
//
//  1. each server broadcasts its parameter vector to every worker; each
//     worker aggregates the first q received with the coordinate-wise
//     median and computes a stochastic gradient there;
//  2. each worker broadcasts its gradient to every server; each server
//     aggregates the first q̄ received with Multi-Krum and applies a local
//     SGD update;
//  3. each server broadcasts its updated vector to its peers and aggregates
//     the first q received (its own vector included) with the median —
//     the contraction round.
//
// Byzantine nodes run the same loops but pass every outbound vector through
// an attack.Attack, which may replace it (corruption, equivocation) or
// suppress it (silence).
//
// # Launcher
//
// RunLiveContext is the one way a whole deployment comes up in a process:
// it cuts every node's config from the LiveConfig, opens every endpoint on
// the mesh LiveConfig.TCP selects, starts all loops together, tears the mesh
// down on cancellation, on the first node error or when the last loop
// returns, and reports the median of the honest servers' finals. A node
// stranded past shed frames fails the run only if the others needed it: a
// worker's or a Byzantine server's quorum timeout does not, nor does the
// last honest server's once another has finished (its final is left out);
// LiveResult.Stranded names them. mesh.go
// holds both meshes and the layer order of a node's endpoint; guanyu.RunNode,
// one node per OS process, builds its endpoint from the same two functions.
//
// # Wire framing
//
// Every quorum is gathered by one transport.Collector feeding the rule's
// gar.ShardStreamer (gar.StreamerFor); ShardSize
// (ServerConfig/WorkerConfig/LiveConfig) only picks the collector's layout.
// Unset, the layout has one shard: whole-vector frames, one fold of the
// first q vectors. Set, every broadcast streams as fixed coordinate shards
// and each shard aggregates the moment its first-q set completes, so peak
// receive memory is O(q·shard) instead of O(q·d) and aggregation overlaps
// the network receive. Aggregates are bit-identical at any layout and
// parallelism (the regression suite asserts it). A node whose rules have no
// streaming path (bulyan, geomed, mda) keeps the one-shard layout
// whatever ShardSize says — its collector reassembles inbound chunk streams
// per sender, and a sharded collector takes whole vectors as every shard at
// once, so the two framings interoperate within one deployment.
//
// # Actor runtime
//
// Each node is an actor: its loop consumes one bounded per-sender inbound
// mailbox (LiveConfig.Mailbox, applied to every endpoint via SetMailbox
// → transport.Mailbox) and broadcasts through per-link couriers
// (transport.Couriers), one goroutine and one bounded outbox per
// destination, so a slow or dead peer delays only its own link. An honest
// node hands each vector over once (transport.Broadcast) and the couriers
// snapshot — and, under float32, encode — it once for all destinations; a
// Byzantine node sends per destination, because it may equivocate. The
// zero-value configuration keeps the historical unbounded behaviour; when
// a bound is set, drop-oldest is the protocol-safe lossy policy — quorums
// only ever admit a sender's freshest step, so evicting that sender's
// oldest queued frame discards exactly what the collector would have
// rejected as stale, and the per-sender accounting means a flooding
// Byzantine node can never evict honest traffic. When no overflow occurs
// the bound is invisible: the regression suite asserts whole-vector,
// sharded and compressed runs are bit-identical under every policy.
// Every hardening counter lives in exactly one place, the node's
// internal/metrics.NodeMetrics handle (LiveConfig.Metrics /
// ServerConfig.Metrics), incremented the moment the event happens — so a
// /metrics scrape observes live values mid-run instead of a snapshot
// written at node exit, a cancelled node's totals are exact, and
// LiveResult.Totals (the registry's sum over nodes) carries the full drop
// taxonomy out of a finished run.
// The flood soak test (flood_test.go) pins the memory bound: peak heap
// under a Byzantine-rate TCP spray stays within the
// nodes × cap × frame-size budget while training converges.
//
// # Invariants
//
//   - Who may fill a quorum is the node's own config: a server takes
//     gradients only from cfg.Workers and peer parameters only from
//     cfg.Peers, a worker takes parameters only from cfg.Servers (newQuorum
//     installs the table; the collector drops and counts every other pair
//     as DroppedRoster, zero on a fault-free run). The deployment's
//     membership is fixed, as in the paper: a restarted server returns
//     under the same ID.
//   - Among those senders, quorum membership and order are decided by
//     arrival time alone; the inbound boundary discards malformed payloads
//     (wrong dimension or shard extent — counted in DroppedMalformed by the
//     collector; non-finite values, anonymous senders — the validator) so
//     they act as silence, never as poison.
//   - Send errors are dropped: the network model is best-effort and the
//     quorum discipline tolerates missing messages.
//   - Payload immutability from the Send boundary on is the transport's
//     job; node loops mutate their one parameter vector freely between
//     broadcasts.
//   - Every d-sized vector of a step has one owner that returns it to the
//     free list (tensor.Get/Put; the table is in internal/tensor's package
//     comment): the node loops return the aggregates and gradients they
//     were given once they have consumed them, and tell the collector to
//     recycle a quorum's inputs only after the streamer's Result and the
//     Suspicion report have read them for the last time.
package cluster
