package metrics

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

// DefaultStallAfter is the healthz stall window when the caller does
// not choose one: a node that reports no progress for this long while
// not done marks the deployment unhealthy.
const DefaultStallAfter = 60 * time.Second

// counterFamilies maps exposition family names to their snapshot
// accessor, in a fixed order so scrapes diff cleanly.
var counterFamilies = []struct {
	name, help string
	value      func(Snapshot) uint64
}{
	{"guanyu_dropped_future_total",
		"Frames dropped for claiming a step beyond the collection horizon.",
		func(s Snapshot) uint64 { return s.DroppedFuture }},
	{"guanyu_dropped_malformed_total",
		"Frames dropped by structural validation (bad shard tags, undecodable payloads).",
		func(s Snapshot) uint64 { return s.DroppedMalformed }},
	{"guanyu_forged_dropped_total",
		"Frames dropped because From disagreed with the connection's hello identity.",
		func(s Snapshot) uint64 { return s.ForgedDropped }},
	{"guanyu_dropped_unnegotiated_total",
		"Frames dropped for using a compression scheme the sender never negotiated.",
		func(s Snapshot) uint64 { return s.DroppedUnnegotiated }},
	{"guanyu_dropped_roster_total",
		"Frames dropped because the sender is not legal for the frame's kind at this node.",
		func(s Snapshot) uint64 { return s.DroppedRoster }},
	{"guanyu_mailbox_dropped_total",
		"Frames evicted or rejected by the node's bounded inbound mailbox.",
		func(s Snapshot) uint64 { return s.DroppedOverflow }},
	{"guanyu_courier_dropped_total",
		"Frames evicted or rejected by the node's outbound courier links.",
		func(s Snapshot) uint64 { return s.CourierDropped }},
	{"guanyu_closed_dropped_total",
		"Frames dropped because the mailbox had already closed.",
		func(s Snapshot) uint64 { return s.DroppedClosed }},
	{"guanyu_steps_total",
		"Completed protocol steps.",
		func(s Snapshot) uint64 { return s.Steps }},
}

var gaugeFamilies = []struct {
	name, help string
	value      func(Snapshot) float64
}{
	{"guanyu_collector_peak_bytes",
		"High-water mark of collector buffer bytes.",
		func(s Snapshot) float64 { return float64(s.PeakBytes) }},
	{"guanyu_mailbox_depth",
		"Last published inbound mailbox depth.",
		func(s Snapshot) float64 { return float64(s.QueueDepth) }},
	{"guanyu_last_step",
		"Last completed protocol step (-1 before the first).",
		func(s Snapshot) float64 { return float64(s.LastStep) }},
	{"guanyu_since_last_quorum_seconds",
		"Seconds since the node last made quorum progress.",
		func(s Snapshot) float64 { return s.SinceProgress.Seconds() }},
	{"guanyu_node_done",
		"1 once the node finished its run cleanly.",
		func(s Snapshot) float64 {
			if s.Done {
				return 1
			}
			return 0
		}},
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: HELP/TYPE headers per family, one sample per
// node labelled node="<id>", the process's free-list ledger per vector
// length labelled len="<n>" (only vouched lengths have a class, so the set
// stays bounded), and a guanyu_node_info info-metric that carries each
// node's listen address as a label.
func WritePrometheus(w io.Writer, r *Registry) {
	snaps := r.Snapshot()
	for _, f := range counterFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{node=%q} %d\n", f.name, s.ID, f.value(s))
		}
	}
	for _, f := range gaugeFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{node=%q} %g\n", f.name, s.ID, f.value(s))
		}
	}
	ledger := tensor.Outstanding()
	fmt.Fprintf(w, "# HELP guanyu_free_list_outstanding Vectors taken from the process's free list and not yet handed back, per length.\n# TYPE guanyu_free_list_outstanding gauge\n")
	for _, n := range slices.Sorted(maps.Keys(ledger)) {
		fmt.Fprintf(w, "guanyu_free_list_outstanding{len=\"%d\"} %d\n", n, ledger[n])
	}
	fmt.Fprintf(w, "# HELP guanyu_node_info Node identity and listen address.\n# TYPE guanyu_node_info gauge\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "guanyu_node_info{node=%q,addr=%q} 1\n", s.ID, s.Addr)
	}
}

// writeHealth renders the healthz body: a verdict line followed by one
// line per node. Sorted by ID so the output is stable for tests.
func writeHealth(w io.Writer, h Health) {
	if h.Healthy {
		fmt.Fprintln(w, "ok")
	} else {
		fmt.Fprintf(w, "stalled: %s\n", strings.Join(h.Stalled, ","))
	}
	nodes := append([]NodeHealth(nil), h.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		state := "running"
		if n.Done {
			state = "done"
		} else if n.Stalled {
			state = "stalled"
		}
		fmt.Fprintf(w, "%s %s last_step=%d since_quorum=%.1fs mailbox_depth=%d\n",
			n.ID, state, n.LastStep, n.SinceProgress.Seconds(), n.QueueDepth)
	}
}

// Server is a live /metrics + /healthz listener over one registry.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler returns the HTTP handler serving /metrics and /healthz for
// reg, so callers embedding the ops surface in their own mux can.
func Handler(reg *Registry, stallAfter time.Duration) http.Handler {
	if stallAfter <= 0 {
		stallAfter = DefaultStallAfter
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := reg.CheckHealth(stallAfter)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !h.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeHealth(w, h)
	})
	return mux
}

// Serve starts the ops listener on addr (use port 0 to pick a free
// one; Addr reports the bound address). The listener runs until Close.
func Serve(addr string, reg *Registry, stallAfter time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg, stallAfter)}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// closeGrace bounds how long Close waits for in-flight scrapes.
const closeGrace = time.Second

// Close stops accepting, lets in-flight scrapes finish — a scrape that
// overlaps the end of a run still gets a complete exposition — and after
// closeGrace terminates whatever is left.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if s.srv.Shutdown(ctx) == nil {
		return nil
	}
	return s.srv.Close()
}
