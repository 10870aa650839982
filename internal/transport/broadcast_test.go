package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// Tests for the broadcast path: one snapshot and — under a stateless codec —
// one encoding per frame, leased to every link's outbox and returned by
// whoever disposes of the last queued copy. All of them mean more under
// -race, where tensor.Put poisons what it takes back.

// stallable lends like borrower, per destination, announces every Send on
// entered, and parks the Sends to `slow` until release is closed.
type stallable struct {
	handoff
	slow    string
	entered chan string // sized for every Send of a test
	release chan struct{}

	mu   sync.Mutex
	lent map[string][]tensor.Vector // identity and Step only: never read after Send
	step map[string][]int
}

func newStallable(slow string) *stallable {
	return &stallable{slow: slow, entered: make(chan string, 16), release: make(chan struct{}),
		lent: make(map[string][]tensor.Vector), step: make(map[string][]int)}
}

func (s *stallable) Send(to string, m Message) error {
	s.mu.Lock()
	s.lent[to] = append(s.lent[to], m.Vec)
	s.step[to] = append(s.step[to], m.Step)
	s.mu.Unlock()
	s.entered <- to
	if to == s.slow {
		<-s.release
	}
	return nil
}

// TestLeaseReleasedByEveryDisposer drives each overflow policy with one
// stalled link and two fast ones: a frame the stalled outbox rejects
// (drop-newest) or evicts (drop-oldest), and frames still queued at Close,
// all give their share back, so every snapshot returns to the free list —
// once.
func TestLeaseReleasedByEveryDisposer(t *testing.T) {
	tos := []string{"slow", "f1", "f2"}
	cases := []struct {
		policy   OverflowPolicy
		dim      int // one length per case: the ledger of its own
		slowSaw  []int
		overflow uint64
	}{
		{DropNewest, 3131, []int{0, 1}, 1},   // frame 2 is rejected
		{DropOldest, 3232, []int{0, 2}, 1},   // frame 1 is evicted
		{Backpressure, 3333, []int{0, 1}, 0}, // two frames only: frame 1 is queued at Close
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			moved := ledger(tc.dim)
			inner := newStallable("slow")
			c := NewCouriers(inner, MailboxConfig{Cap: 1, Policy: tc.policy})
			mine := seq(tc.dim, 1)
			frames := 3
			if tc.policy == Backpressure {
				frames = 2 // a third would block the broadcaster, by contract
			}
			for step := 0; step < frames; step++ {
				if err := c.Broadcast(tos, Message{Kind: KindParams, Step: step, Vec: mine}); err != nil {
					t.Fatal(err)
				}
				// The fast links take every frame out of their outboxes at once;
				// the slow one takes frame 0 and sits on it.
				taken := 2
				if step == 0 {
					taken = 3
				}
				for ; taken > 0; taken-- {
					<-inner.entered
				}
			}
			if got := c.Metrics().CourierDropped.Load(); got != tc.overflow {
				t.Fatalf("CourierDropped = %d, want %d", got, tc.overflow)
			}
			close(inner.release)
			if err := c.Close(); err != nil { // flushes what is queued, waits for the links
				t.Fatal(err)
			}
			if got := inner.step["slow"]; len(got) != len(tc.slowSaw) || got[0] != tc.slowSaw[0] || got[1] != tc.slowSaw[1] {
				t.Fatalf("the stalled link was sent steps %v, want %v", got, tc.slowSaw)
			}
			snapshots := inner.lent["f1"]
			if len(snapshots) != frames {
				t.Fatalf("a fast link was sent %d frames, want %d", len(snapshots), frames)
			}
			for i, v := range snapshots {
				if &v[0] != &inner.lent["f2"][i][0] {
					t.Fatalf("frame %d: the fast links were lent different vectors", i)
				}
			}
			if moved() != 0 {
				t.Fatalf("the snapshots left the ledger at %d; want each handed back once, by whoever released its last share", moved())
			}
		})
	}
}

// TestLeaseEncodesOnce: every link of a broadcast asks the lease for the
// float32 payload; they all get the same bytes in the same memory, encoded
// by whoever came first and not again.
func TestLeaseEncodesOnce(t *testing.T) {
	const links = 8
	cfg := compress.Config{Scheme: compress.Float32}
	vec := awkwardVec(5000)
	want, err := compress.NewEncoder(cfg).Encode(nil, uint8(KindGradient), 3, 0, vec)
	if err != nil {
		t.Fatal(err)
	}
	l := &lease{vec: append(tensor.Vector(nil), vec...)}
	l.refs.Store(links)
	m := Message{Kind: KindGradient, Step: 3, Vec: l.vec, lease: l}

	got := make([][]byte, links)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame := m // each link has its own copy of the message and its own encoder
			if err := CompressMessage(compress.NewEncoder(cfg), &frame); err != nil {
				t.Error(err)
				return
			}
			if frame.Vec != nil || frame.Comp.Dim != len(vec) || frame.Comp.Scheme != uint8(compress.Float32) {
				t.Errorf("link %d: compressed to %+v", i, frame.Comp)
			}
			got[i] = frame.Comp.Data
		}()
	}
	wg.Wait()
	for i, data := range got {
		if !bytes.Equal(data, want) {
			t.Fatalf("link %d: the shared payload differs from a per-link encoding", i)
		}
		if &data[0] != &got[0][0] {
			t.Fatalf("link %d got an encoding of its own", i)
		}
	}
	// A later asker does not encode again: the snapshot is immutable while
	// leased, so the test may only learn this by breaking that rule.
	l.vec[0] = 12345
	late := m
	if err := CompressMessage(compress.NewEncoder(cfg), &late); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(late.Comp.Data, want) {
		t.Fatal("the lease encoded its snapshot a second time")
	}

	// Stateful schemes and vectors the lease does not hold encode per link.
	topk := compress.NewEncoder(compress.Config{Scheme: compress.TopK, TopKFrac: 0.5})
	stateful := Message{Kind: KindGradient, Step: 3, Vec: l.vec, lease: l}
	swapped := Message{Kind: KindGradient, Step: 3, Vec: append(tensor.Vector(nil), vec...), lease: l}
	if stateful.sharesEncoding(topk) || swapped.sharesEncoding(compress.NewEncoder(cfg)) {
		t.Fatal("a per-link payload was taken for the lease's shared one")
	}
}

// TestBroadcastWireBytesMatchPerLinkSend: over real sockets with float32
// negotiated, what a broadcast puts on each link is byte for byte what a
// Send of the same frames to that link alone puts there — the frames of
// AppendMessage over CompressMessage, in shard order.
func TestBroadcastWireBytesMatchPerLinkSend(t *testing.T) {
	const dim, shard = 40000, 16384 // two chunks with 64 KiB payloads and a shorter third
	cfg := compress.Config{Scheme: compress.Float32}
	vec := awkwardVec(dim)
	whole := Message{Kind: KindParams, Step: 5, Vec: vec}

	var want []byte
	enc := compress.NewEncoder(cfg)
	for _, f := range SplitMessage(whole, shard) {
		f.From = "sender"
		if err := CompressMessage(enc, &f); err != nil {
			t.Fatal(err)
		}
		want = append(want, mustEncode(t, f)...)
	}

	sinks := map[string]*sinkPeer{"p0": newSinkPeer(t), "p1": newSinkPeer(t)}
	peers := make(map[string]string)
	for id, p := range sinks {
		peers[id] = p.ln.Addr().String()
	}
	node, err := ListenTCP("sender", "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.SetCompression(cfg, 0); err != nil {
		t.Fatal(err)
	}
	c := NewCouriers(node, MailboxConfig{Cap: 128, Policy: DropOldest})
	defer c.Close()
	if err := Broadcast(c, []string{"p0", "p1"}, whole, shard); err != nil {
		t.Fatal(err)
	}
	vec[0], vec[dim-1] = 1, 2 // the caller's vector is its own again
	for id, p := range sinks {
		_, br := p.accept(t)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(br, got); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: broadcast bytes differ from a per-link Send's", id)
		}
	}
}

// TestBroadcastSharesNothingAcrossStatefulLinks: top-k keeps one encoder
// per link, so under Broadcast — one shared snapshot — every link
// must decode exactly what per-link Sends of the same traffic deliver.
func TestBroadcastSharesNothingAcrossStatefulLinks(t *testing.T) {
	receivers := []string{"r0", "r1", "r2"}
	for _, spec := range []string{"float32", "topk:k=0.2"} {
		cfg, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		// run ships the sequence through publish and returns what each
		// receiver got, in arrival order.
		run := func(publish func(sender Endpoint, m Message)) map[string][]Message {
			net := NewChanNetwork(nil)
			defer net.Close()
			recv := make(map[string]Endpoint)
			for _, id := range receivers {
				ep, err := net.Register(id)
				if err != nil {
					t.Fatal(err)
				}
				if recv[id], err = NewCompressor(ep, compress.Config{}, 64); err != nil {
					t.Fatal(err)
				}
			}
			ep, err := net.Register("sender")
			if err != nil {
				t.Fatal(err)
			}
			comp, err := NewCompressor(ep, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			sender := NewCouriers(comp, MailboxConfig{})
			msgs := compressTestSequence()
			for _, m := range msgs {
				publish(sender, m)
			}
			if err := sender.Close(); err != nil { // every outbox flushed
				t.Fatal(err)
			}
			out := make(map[string][]Message)
			for id, ep := range recv {
				for range msgs {
					m, ok := ep.Recv(5 * time.Second)
					if !ok {
						t.Fatalf("%s: %s got %d of %d messages", spec, id, len(out[id]), len(msgs))
					}
					out[id] = append(out[id], m)
				}
			}
			return out
		}
		perLink := run(func(sender Endpoint, m Message) {
			for _, to := range receivers {
				if err := sender.Send(to, m); err != nil {
					t.Fatal(err)
				}
			}
		})
		broadcast := run(func(sender Endpoint, m Message) {
			if err := Broadcast(sender, receivers, m, 0); err != nil {
				t.Fatal(err)
			}
		})
		for _, id := range receivers {
			for i, want := range perLink[id] {
				got := broadcast[id][i]
				if got.Kind != want.Kind || got.Step != want.Step || got.Shard != want.Shard || !sameBits(got.Vec, want.Vec) {
					t.Fatalf("%s: %s message %d: broadcast delivered %+v, per-link Send %+v", spec, id, i, got, want)
				}
			}
		}
	}
}

// TestBroadcastIntactUnderFaults: a fault injector between the couriers and
// the codec holds frames back (reorder) and re-sends them from timers (delay
// spikes) long after the link goroutine has released its share; what it kept
// must be a copy of its own. Every delivered payload is checked against the
// step it claims, while the sender overwrites its one vector each step.
func TestBroadcastIntactUnderFaults(t *testing.T) {
	const dim, steps = 512, 300
	receivers := []string{"r0", "r1", "r2"}
	faults, err := FaultByName("flaky", nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	net := NewChanNetwork(nil)
	defer net.Close()
	recv := make(map[string]Endpoint)
	for _, id := range receivers {
		ep, err := net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		if recv[id], err = NewCompressor(ep, compress.Config{}, dim); err != nil {
			t.Fatal(err)
		}
	}
	ep, err := net.Register("sender")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompressor(ep, compress.Config{Scheme: compress.Float32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sender := NewCouriers(NewFaultInjector(faults).Wrap(comp), MailboxConfig{Cap: 128, Policy: Backpressure})

	// Coordinate i of step s is 1024·s + i: exact in float32, unique per step.
	vec := make(tensor.Vector, dim)
	for s := 0; s < steps; s++ {
		for i := range vec {
			vec[i] = float64(1024*s + i)
		}
		if err := Broadcast(sender, receivers, Message{Kind: KindGradient, Step: s, Vec: vec}, 128); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Close(); err != nil { // outboxes flushed, held frames released, timers done
		t.Fatal(err)
	}
	for id, ep := range recv {
		delivered := 0
		for {
			m, ok := ep.Recv(0)
			if !ok {
				break
			}
			delivered++
			for i, x := range m.Vec {
				if want := float64(1024*m.Step + m.Shard.Offset + i); math.Float64bits(x) != math.Float64bits(want) {
					t.Fatalf("%s: step %d shard %d coordinate %d = %v, want %v", id, m.Step, m.Shard.Index, i, x, want)
				}
			}
		}
		if delivered < steps*4*9/10 { // flaky drops 1 %, duplicates 2 %
			t.Fatalf("%s received %d of %d frames", id, delivered, steps*4)
		}
	}
}

// hidesBroadcast embeds the Endpoint interface the way the runtimes' own
// wrappers do (cluster's heldOpen, the benchmark's tracedEndpoint): the four
// methods pass through, Broadcast does not.
type hidesBroadcast struct{ Endpoint }

// TestBroadcastFrameOrder: with a broadcaster outermost each link sees its
// frames in shard order; behind a wrapper, and on any plain endpoint, it is
// SendSharded per destination. Either way every destination is attempted and
// the first error comes back.
func TestBroadcastFrameOrder(t *testing.T) {
	tos := []string{"n0", "n1", "n2"}
	whole := Message{Kind: KindParams, Step: 1, Vec: seq(100, 0)}
	for name, wrap := range map[string]func(*Couriers) Endpoint{
		"couriers": func(c *Couriers) Endpoint { return c },
		"wrapped":  func(c *Couriers) Endpoint { return hidesBroadcast{c} },
	} {
		stub := newStubEndpoint()
		stub.gate = make(chan struct{})
		stub.inSend = make(chan struct{}, 12)
		c := NewCouriers(stub, MailboxConfig{})
		if err := Broadcast(wrap(c), tos, whole, 30); err != nil {
			t.Fatal(err)
		}
		close(stub.gate) // no snapshot was returned, and so none reused, before all were taken
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for _, to := range tos {
			got := stub.sentTo(to)
			if len(got) != 4 {
				t.Fatalf("%s: %s received %d frames, want 4", name, to, len(got))
			}
			for i, m := range got {
				if m.Shard.Index != i || m.Shard.Offset != 30*i || m.Vec[0] != float64(30*i) {
					t.Fatalf("%s: %s frame %d is shard %+v starting at %v", name, to, i, m.Shard, m.Vec[0])
				}
			}
		}
		snapshots := 0
		seen := make(map[*float64]bool)
		for _, to := range tos {
			for _, p := range stub.lent[to] {
				if !seen[p] {
					seen[p] = true
					snapshots++
				}
			}
		}
		if want := map[string]int{"couriers": 4, "wrapped": 12}[name]; snapshots != want {
			t.Fatalf("%s: %d snapshots for 4 frames to 3 links, want %d", name, snapshots, want)
		}
	}

	refuse := errors.New("unreachable")
	plain := &refusing{stubEndpoint: newStubEndpoint(), to: "n1", err: refuse}
	if err := Broadcast(plain, tos, whole, 30); !errors.Is(err, refuse) {
		t.Fatalf("Broadcast returned %v, want the failing link's error", err)
	}
	if len(plain.sentTo("n0")) != 4 || len(plain.sentTo("n2")) != 4 {
		t.Fatal("one failing destination cost another its frames")
	}
}

// refusing fails every Send to one destination.
type refusing struct {
	*stubEndpoint
	to  string
	err error
}

func (r *refusing) Send(to string, m Message) error {
	if to == r.to {
		return r.err
	}
	return r.stubEndpoint.Send(to, m)
}

// TestReadMessageWarmCompressedBufferSkipsStaging: a compressed frame whose
// payload fits the buffer the caller brought is read straight into it — only
// the sender ID goes through scratch — and a cold buffer still pays for one
// staged chunk first.
func TestReadMessageWarmCompressedBufferSkipsStaging(t *testing.T) {
	const dim = 16384 // a 64 KiB float32 payload: the benchmark's chunk frame
	sent := Message{From: "wrk3", Kind: KindGradient, Step: 4, Vec: awkwardVec(dim),
		Shard: ShardMeta{Index: 1, Count: 3, Offset: dim}}
	if err := CompressMessage(compress.NewEncoder(compress.Config{Scheme: compress.Float32}), &sent); err != nil {
		t.Fatal(err)
	}
	frame := mustEncode(t, sent)

	var scratch []byte
	warm := make([]byte, 0, 4*dim)
	got := Message{Comp: CompMeta{Data: warm}}
	if err := ReadMessage(bytes.NewReader(frame), &scratch, &got); err != nil {
		t.Fatal(err)
	}
	if got.From != sent.From || got.Kind != sent.Kind || got.Step != sent.Step || got.Shard != sent.Shard ||
		got.Comp.Scheme != sent.Comp.Scheme || got.Comp.Dim != dim || !bytes.Equal(got.Comp.Data, sent.Comp.Data) {
		t.Fatal("a frame read into a warm buffer differs from the one sent")
	}
	if &got.Comp.Data[0] != &warm[:1][0] {
		t.Fatal("the payload did not land in the caller's buffer")
	}
	if cap(scratch) >= readChunkBytes/2 {
		t.Fatalf("scratch grew to %d bytes: the payload was staged", cap(scratch))
	}
	err := ReadMessage(bytes.NewReader(frame[:len(frame)-1]), &scratch, &Message{Comp: CompMeta{Data: warm}})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame into a warm buffer: err = %v, want io.ErrUnexpectedEOF", err)
	}

	var cold Message
	if err := ReadMessage(bytes.NewReader(frame), &scratch, &cold); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Comp.Data, sent.Comp.Data) || cap(scratch) < readChunkBytes/2 {
		t.Fatalf("cold buffer: payload equal = %v, scratch %d bytes; want the first chunk staged",
			bytes.Equal(cold.Comp.Data, sent.Comp.Data), cap(scratch))
	}
}
