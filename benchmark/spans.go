package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/gar"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Span names. A span's layer is the module its name starts with.
const (
	spanRun       = "cluster.run"  // one node loop, call to return
	spanStep      = "cluster.step" // one protocol step of one node (synthesised)
	spanSend      = "transport.Send"
	spanRecv      = "transport.Recv"
	spanAggregate = "gar.Aggregate"
	spanFold      = "gar.Fold"
	spanResult    = "gar.Result"
)

// Rule roles, carried in span.Kind next to the transport message kinds.
const (
	roleGrad  = "grad"
	roleParam = "param"
)

// span is one timed call into a layer, recorded by a benchmark-owned wrapper.
// Times are nanoseconds since the recorder started. Parent is the ID of the
// enclosing span (0 = none): node run → protocol step → call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Node   string `json:"node"`
	Round  int    `json:"round"`
	Step   int    `json:"step"` // -1 until linked to a step span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; nothing is written
// until the run is over. One mutex suffices: a span is a few dozen bytes
// appended once per frame-sized unit of work.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	round int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name, kind, node string, step int, start, end time.Time, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Name: name, Kind: kind, Node: node, Round: r.round, Step: step,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Bytes: bytes,
	})
}

// beginRound stamps the spans that follow with round and returns a mark that
// truncate rolls the recorder back to.
func (r *recorder) beginRound(round int) (mark int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.round = round
	return len(r.spans)
}

func (r *recorder) truncate(mark int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = r.spans[:mark]
}

// writeFile dumps the spans as JSON (one array) for offline inspection.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedEndpoint times every Send and Recv of one node. It wraps the raw
// socket endpoint, below any courier, so Send covers encode + write and
// the counts are frames on the wire.
type tracedEndpoint struct {
	transport.Endpoint
	rec *recorder
}

func (e tracedEndpoint) Send(to string, m transport.Message) error {
	start := time.Now()
	err := e.Endpoint.Send(to, m)
	e.rec.add(spanSend, m.Kind.String(), e.ID(), m.Step, start, time.Now(), 8*len(m.Vec))
	return err
}

func (e tracedEndpoint) Recv(timeout time.Duration) (transport.Message, bool) {
	start := time.Now()
	m, ok := e.Endpoint.Recv(timeout)
	if ok {
		e.rec.add(spanRecv, m.Kind.String(), e.ID(), -1, start, time.Now(), 8*len(m.Vec))
	}
	return m, ok
}

// tracedRule times Aggregate; tracedStreamingRule adds the shard-streaming
// contract so cluster.RunServer still finds a gar.StreamingRule behind it.
type tracedRule struct {
	gar.Rule
	rec        *recorder
	node, role string
}

func (r tracedRule) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	start := time.Now()
	out, err := r.Rule.Aggregate(inputs)
	r.rec.add(spanAggregate, r.role, r.node, -1, start, time.Now(), 0)
	return out, err
}

type tracedStreamingRule struct {
	tracedRule
	streaming gar.StreamingRule
}

func (r tracedStreamingRule) PinnedQuorum() bool { return r.streaming.PinnedQuorum() }

func (r tracedStreamingRule) NewStreamer(dim int) gar.ShardStreamer {
	return &tracedStreamer{ShardStreamer: r.streaming.NewStreamer(dim), rule: r.tracedRule}
}

type tracedStreamer struct {
	gar.ShardStreamer
	rule tracedRule
}

func (s *tracedStreamer) Fold(lo, hi int, inputs []tensor.Vector) error {
	start := time.Now()
	err := s.ShardStreamer.Fold(lo, hi, inputs)
	s.rule.rec.add(spanFold, s.rule.role, s.rule.node, -1, start, time.Now(), 0)
	return err
}

func (s *tracedStreamer) Result() (tensor.Vector, error) {
	start := time.Now()
	out, err := s.ShardStreamer.Result()
	s.rule.rec.add(spanResult, s.rule.role, s.rule.node, -1, start, time.Now(), 0)
	return out, err
}

// traceRule wraps rule for one node, keeping the streaming contract when the
// rule has one.
func traceRule(rule gar.Rule, rec *recorder, node, role string) gar.Rule {
	tr := tracedRule{Rule: rule, rec: rec, node: node, role: role}
	if sr, ok := rule.(gar.StreamingRule); ok {
		return tracedStreamingRule{tracedRule: tr, streaming: sr}
	}
	return tr
}

// stepStartKind is the message kind whose first Send opens a node's step:
// the phase-1 broadcast for a server, the phase-2 broadcast for a worker
// (which sends nothing in phase 1; consecutive gradient broadcasts are one
// step apart all the same).
func stepStartKind(server bool) string {
	if server {
		return transport.KindParams.String()
	}
	return transport.KindGradient.String()
}

// linkSteps synthesises one cluster.step span per (round, node, step) — from
// that step's first opening Send to the next step's, the last one closing
// with the node's run span — and parents every call span to the step that
// contains its start (or to the run span before the first step). It returns
// the spans with the step spans appended.
func linkSteps(spans []span) []span {
	type nodeKey struct {
		round int
		node  string
	}
	runs := make(map[nodeKey]int) // index of the node's run span
	first := make(map[nodeKey]map[int]int64)
	for i, s := range spans {
		k := nodeKey{s.Round, s.Node}
		switch {
		case s.Name == spanRun:
			runs[k] = i
		case s.Name == spanSend && s.Kind == stepStartKind(isServerNode(s.Node)):
			if first[k] == nil {
				first[k] = make(map[int]int64)
			}
			if at, ok := first[k][s.Step]; !ok || s.Start < at {
				first[k][s.Step] = s.Start
			}
		}
	}
	steps := make(map[nodeKey][]span)
	for k, starts := range first {
		ri, ok := runs[k]
		if !ok {
			continue
		}
		order := make([]int, 0, len(starts))
		for st := range starts {
			order = append(order, st)
		}
		sort.Ints(order)
		for i, st := range order {
			end := spans[ri].End
			if i+1 < len(order) {
				end = starts[order[i+1]]
			}
			steps[k] = append(steps[k], span{
				Name: spanStep, Node: k.node, Round: k.round, Step: st,
				Parent: spans[ri].ID, Start: starts[st], End: end,
			})
		}
	}
	next := len(spans) + 1
	out := spans
	keys := make([]nodeKey, 0, len(steps))
	for k := range steps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].round != keys[b].round {
			return keys[a].round < keys[b].round
		}
		return keys[a].node < keys[b].node
	})
	for _, k := range keys {
		for i := range steps[k] {
			steps[k][i].ID = next
			next++
		}
		out = append(out, steps[k]...)
	}
	for i := range spans {
		s := &out[i]
		if s.Name == spanRun {
			continue
		}
		k := nodeKey{s.Round, s.Node}
		if ri, ok := runs[k]; ok {
			s.Parent = spans[ri].ID
		}
		ss := steps[k]
		// Last step starting at or before the span.
		j := sort.Search(len(ss), func(j int) bool { return ss[j].Start > s.Start }) - 1
		if j >= 0 && s.Start < ss[j].End {
			s.Parent = ss[j].ID
			if s.Step < 0 {
				s.Step = ss[j].Step
			}
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its direct children (overlapping children counted
// once, children clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), p.Start
		for _, c := range kids {
			lo, hi := max(c.Start, upTo), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}
