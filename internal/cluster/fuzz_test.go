package cluster

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// oneShot is an endpoint whose mailbox holds exactly one message.
type oneShot struct{ m *transport.Message }

func (e *oneShot) ID() string                           { return "srv" }
func (e *oneShot) Send(string, transport.Message) error { return nil }
func (e *oneShot) Close() error                         { return nil }
func (e *oneShot) Recv(time.Duration) (transport.Message, bool) {
	if e.m == nil {
		return transport.Message{}, false
	}
	m := *e.m
	e.m = nil
	return m, true
}

// FuzzInboundValidator pins down the message-boundary sanitisation every
// honest node installs (newQuorum: the collector's layout check plus the
// validator): payloads of the wrong dimension — including zero-length — or
// containing NaN/±Inf must be REJECTED (treated as silence, the
// wrong-dimension ones counted malformed), and everything else accepted;
// the decision must never panic. This boundary is why the aggregation
// kernels downstream may assume shape-consistent inputs (see the
// internal/gar fuzz targets).
func FuzzInboundValidator(f *testing.F) {
	f.Add(3, []byte{})
	f.Add(1, []byte{})
	f.Add(2, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	nan := make([]byte, 16)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[8:], math.Float64bits(1))
	f.Add(2, nan)

	f.Fuzz(func(t *testing.T, dim int, payload []byte) {
		if dim < 1 || dim > 1024 {
			return
		}
		vec := make(tensor.Vector, len(payload)/8)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8 : i*8+8]))
		}
		// accepted runs m through a fresh node boundary: a q=1 quorum fills
		// exactly when the message is admitted.
		accepted := func(m transport.Message) (bool, uint64) {
			m.Vec = tensor.Clone(m.Vec) // Recv hands the vector over: the collector recycles it
			h := metrics.NewNodeMetrics()
			qm := newQuorum(&oneShot{m: &m}, dim, 0, time.Second, h, nil, gar.Median{})
			_, err := qm.aggregate(m.Kind, m.Step, 1, nil, "", gar.Median{}, nil)
			return err == nil, h.DroppedMalformed.Load()
		}
		m := transport.Message{From: "wrk0", Kind: transport.KindGradient, Step: 1, Vec: vec}
		ok, malformed := accepted(m)
		wellFormed := len(vec) == dim && tensor.IsFinite(vec)
		if ok != wellFormed {
			t.Fatalf("boundary(%d) = %v for len=%d finite=%v",
				dim, ok, len(vec), tensor.IsFinite(vec))
		}
		if want := len(vec) != dim; (malformed == 1) != want {
			t.Fatalf("boundary(%d): DroppedMalformed = %d for len=%d", dim, malformed, len(vec))
		}
		// A message with no sender identity must never occupy a quorum slot,
		// whatever its payload looks like.
		m.From = ""
		if ok, _ := accepted(m); ok {
			t.Fatalf("boundary(%d) accepted an anonymous message", dim)
		}
	})
}
