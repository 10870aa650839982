// Package metrics is the live ops surface of a running deployment: a
// lock-free per-node counter registry that the transport and cluster
// layers publish into while training is in flight.
//
// The hardening counters that make Byzantine behaviour visible —
// forged frames, unnegotiated compression, beyond-horizon steps,
// malformed shards, mailbox overflow — are stored exactly once, in a
// *NodeMetrics handle. Every component that counts (TCP read loops,
// compressors, mailboxes, couriers, collectors, the node loops) owns a
// handle from construction and increments it directly; there is no
// private copy of a counter anywhere else, so there is nothing to keep
// in sync. All handle state is atomic: writers never take a lock on the
// hot path, and a scraper reading mid-run sees values that are current,
// monotonic, and race-clean — also after a cancellation.
//
// A component built on its own counts into a fresh NewNodeMetrics
// handle. A deployment that wants one view per node attaches the
// node's registry handle to each of the node's components (SetMetrics,
// or the collectors' Metrics field) after construction and BEFORE
// traffic starts: events counted earlier stay on the handle that was
// attached when they happened.
//
// A Registry owns one NodeMetrics per node ID. Snapshot returns a
// stable-ordered copy for rendering; Totals sums it into the
// deployment-wide figures a run reports; CheckHealth derives quorum
// liveness (has every non-done node made progress within the stall
// window?). The HTTP exposition on top — GET /metrics in Prometheus
// text format and GET /healthz — lives in http.go.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// NodeMetrics is one node's live counter handle. Counter fields are
// exported atomics so the publishing layers (transport collectors,
// mailboxes, couriers, TCP read loops, cluster step loops) can
// increment them directly without a method call per event.
//
// All counters are cumulative and monotonic for the lifetime of the
// handle; gauges (peak bytes, queue depth, last step) move as the run
// does. Handles are never nil: build one with NewNodeMetrics or
// Registry.Node, never by struct literal (the liveness gauges need their
// initial values).
type NodeMetrics struct {
	// Validation drops, summed across the whole collector and the
	// sharded collector (and, for malformed, the TCP decode path):
	// frames claiming a step beyond the collection horizon, and frames
	// whose payload fails structural validation.
	DroppedFuture    atomic.Uint64
	DroppedMalformed atomic.Uint64

	// TCP hardening drops: frames whose From field disagrees with the
	// connection's hello-authenticated identity, and frames using a
	// compression scheme the sender never negotiated.
	ForgedDropped       atomic.Uint64
	DroppedUnnegotiated atomic.Uint64

	// Sender-table drops: received frames discarded because their sender is
	// not one this node's configuration takes that kind from.
	DroppedRoster atomic.Uint64

	// Mailbox drops. DroppedOverflow counts inbound per-sender queue
	// evictions (drop-oldest) and rejections (drop-newest) at this
	// node's own mailbox; CourierDropped counts the same events on the
	// node's outbound courier links. They are kept separate so inbound
	// backpressure accounting stays exact under rogue floods.
	DroppedOverflow atomic.Uint64
	CourierDropped  atomic.Uint64
	DroppedClosed   atomic.Uint64

	// Steps counts completed protocol steps (server: contraction round
	// applied; worker: gradient broadcast for the step).
	Steps atomic.Uint64

	peakBytes    atomic.Int64
	queueDepth   atomic.Int64
	lastStep     atomic.Int64 // -1 until the first completed step
	lastProgress atomic.Int64 // unix nanoseconds of last liveness signal
	done         atomic.Uint32
	addr         atomic.Pointer[string]
}

// NewNodeMetrics returns a handle outside any registry — what every
// counting component starts with until a registry handle is attached.
func NewNodeMetrics() *NodeMetrics {
	m := &NodeMetrics{}
	m.lastStep.Store(-1)
	//lint:allow-clock liveness timestamps are genuinely wall-clock, never protocol state
	m.lastProgress.Store(time.Now().UnixNano())
	return m
}

// ObservePeak records a collector buffer high-water mark. The handle
// keeps the maximum across all collectors publishing into it.
func (m *NodeMetrics) ObservePeak(n int) {
	v := int64(n)
	for {
		cur := m.peakBytes.Load()
		if v <= cur || m.peakBytes.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StepDone marks protocol step as completed: bumps the step counter,
// advances the last-step gauge, and refreshes the liveness clock.
func (m *NodeMetrics) StepDone(step int) {
	m.Steps.Add(1)
	m.lastStep.Store(int64(step))
	m.Progress()
}

// Progress refreshes the liveness clock without completing a step —
// called when a quorum phase makes headway so a long step under
// partial faults does not read as a stall.
func (m *NodeMetrics) Progress() {
	//lint:allow-clock liveness timestamps are genuinely wall-clock, never protocol state
	m.lastProgress.Store(time.Now().UnixNano())
}

// MarkDone flags the node as cleanly finished; CheckHealth stops
// expecting progress from it.
func (m *NodeMetrics) MarkDone() {
	m.done.Store(1)
	m.Progress()
}

// SetAddr records the node's listen address for the
// guanyu_node_info{node,addr} exposition.
func (m *NodeMetrics) SetAddr(addr string) { m.addr.Store(&addr) }

// SetQueueDepth publishes the node's current inbound mailbox depth.
func (m *NodeMetrics) SetQueueDepth(n int) { m.queueDepth.Store(int64(n)) }

// PeakBytes returns the largest collector buffer high-water mark seen.
func (m *NodeMetrics) PeakBytes() int { return int(m.peakBytes.Load()) }

// QueueDepth returns the last published inbound mailbox depth.
func (m *NodeMetrics) QueueDepth() int { return int(m.queueDepth.Load()) }

// LastStep returns the last completed step, or -1 before the first.
func (m *NodeMetrics) LastStep() int { return int(m.lastStep.Load()) }

// SinceProgress returns the time elapsed since the node last signalled
// liveness (step completion, quorum headway, or clean finish).
func (m *NodeMetrics) SinceProgress() time.Duration {
	//lint:allow-clock stall detection measures real elapsed time by design
	return time.Duration(time.Now().UnixNano() - m.lastProgress.Load())
}

// Done reports whether the node finished its run cleanly.
func (m *NodeMetrics) Done() bool { return m.done.Load() != 0 }

// Addr returns the node's recorded listen address, or "".
func (m *NodeMetrics) Addr() string {
	if p := m.addr.Load(); p != nil {
		return *p
	}
	return ""
}

// Snapshot is a plain-value copy of one node's handle, safe to render
// after the handle keeps moving.
type Snapshot struct {
	ID                  string
	Addr                string
	DroppedFuture       uint64
	DroppedMalformed    uint64
	ForgedDropped       uint64
	DroppedUnnegotiated uint64
	DroppedRoster       uint64
	DroppedOverflow     uint64
	CourierDropped      uint64
	DroppedClosed       uint64
	Steps               uint64
	PeakBytes           int
	QueueDepth          int
	LastStep            int
	SinceProgress       time.Duration
	Done                bool
}

// Registry owns the per-node handles of one deployment. Node is
// get-or-create, so the façade can hand out handles before the node
// goroutines start and scrape while they run.
type Registry struct {
	mu    sync.Mutex
	nodes map[string]*NodeMetrics
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{nodes: make(map[string]*NodeMetrics)}
}

// Node returns the handle for id, creating it on first use. Handles
// are never removed; the registry lives exactly as long as the run.
func (r *Registry) Node(id string) *NodeMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.nodes[id]
	if !ok {
		m = NewNodeMetrics()
		r.nodes[id] = m
		r.order = append(r.order, id)
	}
	return m
}

// IDs returns the registered node IDs in registration order.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Snapshot copies every handle into plain values, in registration
// order. Each field is loaded atomically; the set of fields is not a
// consistent cut, which is fine for monotonic counters.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	handles := make([]*NodeMetrics, len(ids))
	for i, id := range ids {
		handles[i] = r.nodes[id]
	}
	r.mu.Unlock()

	out := make([]Snapshot, len(ids))
	for i, m := range handles {
		out[i] = Snapshot{
			ID:                  ids[i],
			Addr:                m.Addr(),
			DroppedFuture:       m.DroppedFuture.Load(),
			DroppedMalformed:    m.DroppedMalformed.Load(),
			ForgedDropped:       m.ForgedDropped.Load(),
			DroppedUnnegotiated: m.DroppedUnnegotiated.Load(),
			DroppedRoster:       m.DroppedRoster.Load(),
			DroppedOverflow:     m.DroppedOverflow.Load(),
			CourierDropped:      m.CourierDropped.Load(),
			DroppedClosed:       m.DroppedClosed.Load(),
			Steps:               m.Steps.Load(),
			PeakBytes:           m.PeakBytes(),
			QueueDepth:          m.QueueDepth(),
			LastStep:            m.LastStep(),
			SinceProgress:       m.SinceProgress(),
			Done:                m.Done(),
		}
	}
	return out
}

// Totals sums every counter across the registry's nodes — the
// deployment-wide figures a run's result reports, equal by construction
// to the per-node samples of a /metrics scrape taken at the same moment.
// PeakBytes is the maximum across nodes; the remaining gauges and the
// identity fields are per-node notions and stay zero.
func (r *Registry) Totals() Snapshot {
	var t Snapshot
	for _, s := range r.Snapshot() {
		t.DroppedFuture += s.DroppedFuture
		t.DroppedMalformed += s.DroppedMalformed
		t.ForgedDropped += s.ForgedDropped
		t.DroppedUnnegotiated += s.DroppedUnnegotiated
		t.DroppedRoster += s.DroppedRoster
		t.DroppedOverflow += s.DroppedOverflow
		t.CourierDropped += s.CourierDropped
		t.DroppedClosed += s.DroppedClosed
		t.Steps += s.Steps
		t.PeakBytes = max(t.PeakBytes, s.PeakBytes)
	}
	return t
}

// NodeHealth is one node's liveness verdict inside a Health report.
type NodeHealth struct {
	ID            string
	LastStep      int
	SinceProgress time.Duration
	QueueDepth    int
	Done          bool
	Stalled       bool
}

// Health is the quorum-liveness verdict CheckHealth derives from the
// registry: the deployment is healthy iff no live node has gone
// stallAfter without progress. Nodes that finished cleanly are never
// stalled; an empty registry is healthy (nothing has started yet).
type Health struct {
	Healthy bool
	Stalled []string
	Nodes   []NodeHealth
}

// CheckHealth evaluates liveness with the given stall window.
func (r *Registry) CheckHealth(stallAfter time.Duration) Health {
	snaps := r.Snapshot()
	h := Health{Healthy: true, Nodes: make([]NodeHealth, 0, len(snaps))}
	for _, s := range snaps {
		stalled := !s.Done && s.SinceProgress > stallAfter
		if stalled {
			h.Healthy = false
			h.Stalled = append(h.Stalled, s.ID)
		}
		h.Nodes = append(h.Nodes, NodeHealth{
			ID:            s.ID,
			LastStep:      s.LastStep,
			SinceProgress: s.SinceProgress,
			QueueDepth:    s.QueueDepth,
			Done:          s.Done,
			Stalled:       stalled,
		})
	}
	return h
}
