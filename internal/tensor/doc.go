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
// Endpoint.Recv gives), and only the last owner calls Put, once. (The one
// owner that counts is the couriers' lease: a broadcast's snapshot is queued
// on every link's outbox, and the lease — not any link — owns it.)
//
//	taken by                                  returned by, when
//	----------------------------------------  -----------------------------------------
//	transport.readMessage (a received frame,  the node's transport.Collector: at once
//	  after its first 64 KiB chunk landed)      for a frame it drops unbuffered, at
//	compress.Decoder (an expanded frame,        Recycle for one it buffered — after the
//	  after every structural check)             streamer's Result and the Suspicion
//	transport.Message.Clone (in-process         report, or at the next Advance
//	  delivery)
//	transport.Collector.assemble (a chunk
//	  stream joined at a one-shard layout)
//	transport.Couriers.Broadcast (one         the snapshot's lease, at its last
//	  snapshot per frame — Message.Clone —      release: each destination's queued copy
//	  leased to every destination's outbox;     holds one share, given up by the link
//	  under a stateless codec also one          goroutine when the wrapped Send returns
//	  encoding, made by the first link to       or by the outbox that rejects, evicts
//	  compress it, in a pooled byte buffer)     or (closed) refuses the copy; snapshot
//	                                            and encoding go back together
//	gar streamers (an aggregate: the first    cluster.RunServer after the update (the
//	  fold of a coordinate-wise rule,           gradient aggregate) and after the
//	  Multi-Krum's Result)                      contraction round replaced θ (the
//	                                            previous θ); cluster.RunWorker after
//	                                            SetParamVector copied it
//	nn.Sequential.GradVector (a gradient)     cluster.RunWorker after its last send;
//	                                            nn.BatchGradient for the chunk
//	                                            gradients it folded
//
// Never returned: a per-shard view of a whole-vector message (the whole is,
// once), a frame whose length the collector's layout does not produce, a
// vector a failed read left half-filled, the θ RunServer returns, and
// anything whose owner simply drops it — the simulator, every
// Rule.Aggregate caller, the fault injector's held copies. Those fall to the
// garbage collector exactly as before; Get is then make.
//
// pool.go states the three rules that face Byzantine senders; race builds
// poison on Put (poison_race.go), which turns a read after hand-back into a
// NaN that the finiteness validator and the bit-identity suites catch.
package tensor
