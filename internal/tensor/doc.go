// Package tensor provides the dense float64 vector and matrix kernels that
// underpin the neural-network substrate and the gradient aggregation rules.
//
// Everything in this package is deterministic: random number generation uses
// an explicit, seedable generator (splitmix64-seeded xoshiro256**) so that
// experiments are reproducible bit-for-bit across runs and machines.
//
// # The vector free list
//
// Get and Put (pool.go) are the one free list every d-sized vector of a
// live step comes from and goes back to: one sync.Pool per exact length,
// package state so that no constructor or interface had to learn about it.
// The contract is ownership, not reference counting — a vector has exactly
// one owner at any time, hand-overs are explicit (Endpoint.Send lends,
// Endpoint.Recv gives), and only the last owner hands it back, once. (The
// one owner that counts is the couriers' lease: a broadcast's snapshot is
// queued on every link's outbox, and the lease — not any link — owns it.)
// This table is the one statement of who that is; transport's and
// DESIGN.md's ownership notes point here.
//
//	taken by                                  returned by, when
//	----------------------------------------  -----------------------------------------
//	transport.readMessage (a received frame,  the node's transport.Collector: at once
//	  after its first 64 KiB chunk landed)      for a frame it drops unbuffered, at
//	compress.Decoder (an expanded frame,        Recycle for one it buffered — after the
//	  after every structural check)             streamer's Result and the Suspicion
//	transport.Message.Clone (in-process         report, or at the next Advance, the
//	  delivery)                                 last one past the final step when the
//	transport.Collector.assemble (a chunk       node loop returns. A frame no loop
//	  stream joined at a one-shard layout)      received: Message.Release by the
//	                                            receiving endpoint's Mailbox when it
//	                                            sheds the frame (drop-newest,
//	                                            drop-oldest, put after Close) or the
//	                                            endpoint closes with it still queued,
//	                                            or by the in-process network when the
//	                                            destination is gone
//	transport.Couriers.Broadcast (one         the snapshot's lease, at its last
//	  snapshot per frame — Message.Clone —      share: each destination's queued copy
//	  leased to every destination's outbox;     holds one, given up by Message.Release
//	  under a stateless codec also one          — the link goroutine's once the
//	  encoding, made by the first link to       wrapped Send returns, the outbox's that
//	  compress it, in a pooled byte buffer)     rejects, evicts or (closed) refuses the
//	                                            copy; snapshot and encoding go back
//	                                            together
//	the fault injector's copies               Message.Release once the deferred Send
//	  (Message.Clone of a delayed or            of the copy returned (the timer's, the
//	  reordered delivery)                       next send's to that destination, Close)
//	gar streamers (an aggregate: the first    cluster.RunServer after the update (the
//	  fold of a coordinate-wise rule,           gradient aggregate) and after the
//	  Multi-Krum's Result)                      contraction round replaced θ (the
//	                                            previous θ — the first time, the copy
//	                                            of θ₀ the server made itself);
//	                                            cluster.RunWorker after SetParamVector
//	                                            copied it
//	nn.Sequential.GradVector (a gradient)     cluster.RunWorker after its last send;
//	                                            nn.BatchGradient for the chunk
//	                                            gradients it folded
//	attack.SharedView.Publish (the            SharedView.Close, which the launcher
//	  adversary's copy of an honest θ or        calls once the run's loops returned,
//	  gradient)                                 for what is still in the 16-step
//	                                            window (older steps go to the GC)
//	attack.Crafts (the one vector every       the simulator's round once its
//	  colluder of an omniscient attack          receivers aggregated; in the live
//	  sends in one message kind and step)       runtime SharedView.Close, like the
//	                                            honest copies of its window
//	an omniscient attack's fallback           cluster.broadcast once sent
//
// Never returned: a per-shard view of a whole-vector message (the whole is,
// once), a frame whose length the collector's layout does not produce or,
// released by a transport, no existing class has (Reclaim creates none),
// the chunk frames a one-shard collector joined, a vector a failed read
// left half-filled, a SharedView step that left its window, the θ
// RunServer returns, and anything whose owner simply drops it — the simulator,
// every Rule.Aggregate caller. Those fall to the garbage collector exactly
// as before; Get is then make.
//
// The check is the free list's ledger (Outstanding): each size class counts
// the vectors Get handed out less those Put and Reclaim brought back, and
// the /metrics exposition shows it per length. The live tests of
// internal/cluster run every deployment through one helper that makes the
// deployment's size classes, snapshots the ledger, runs, and requires each
// class back where it stood, less the exceptions above that a run keeps by
// design — so a path that forgets a vector leaves the count up and one that
// hands a vector back twice drives it down, on every path a live test
// walks. pool.go states the three rules that face Byzantine senders; race
// builds also poison on Put (poison_race.go), which turns a read after
// hand-back into a NaN that the finiteness validator and the bit-identity
// suites catch.
package tensor
