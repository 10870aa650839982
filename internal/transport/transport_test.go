package transport

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox()
	for i := 0; i < 5; i++ {
		m.Put(Message{Step: i})
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 5; i++ {
		msg, ok := m.Recv(time.Second)
		if !ok || msg.Step != i {
			t.Fatalf("Recv %d: ok=%v step=%d", i, ok, msg.Step)
		}
	}
}

func TestMailboxTimeout(t *testing.T) {
	m := NewMailbox()
	start := time.Now()
	_, ok := m.Recv(20 * time.Millisecond)
	if ok {
		t.Fatal("Recv on empty mailbox returned a message")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("Recv returned too early: %v", elapsed)
	}
}

func TestMailboxCloseWakesReceivers(t *testing.T) {
	m := NewMailbox()
	done := make(chan bool, 1)
	go func() {
		_, ok := m.Recv(-1)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	m.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned message from closed empty mailbox")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not wake on Close")
	}
	// Put after close is dropped.
	m.Put(Message{})
	if m.Len() != 0 {
		t.Fatal("Put after Close enqueued")
	}
}

func TestMailboxConcurrentProducersConsumers(t *testing.T) {
	m := NewMailbox()
	const producers, perProducer = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m.Put(Message{From: fmt.Sprintf("p%d", p), Step: i})
			}
		}(p)
	}
	received := make(chan Message, producers*perProducer)
	var rg sync.WaitGroup
	for c := 0; c < 4; c++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				msg, ok := m.Recv(200 * time.Millisecond)
				if !ok {
					return
				}
				received <- msg
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	close(received)
	if n := len(received); n != producers*perProducer {
		t.Fatalf("received %d messages, want %d", n, producers*perProducer)
	}
}

func TestChanNetworkBasicDelivery(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	a, err := net.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{Kind: KindParams, Step: 1, Vec: tensor.Vector{1, 2}}); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Recv(time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if m.From != "a" || m.Step != 1 || m.Vec[1] != 2 {
		t.Fatalf("got %+v", m)
	}
}

func TestChanNetworkErrors(t *testing.T) {
	net := NewChanNetwork(nil)
	a, _ := net.Register("a")
	if _, err := net.Register("a"); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := a.Send("ghost", Message{}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
	net.Close()
	if err := a.Send("a", Message{}); err == nil {
		t.Fatal("send on closed network succeeded")
	}
	if _, err := net.Register("b"); err == nil {
		t.Fatal("register on closed network succeeded")
	}
}

func TestChanNetworkDelayReordering(t *testing.T) {
	// First message delayed, second immediate: receiver must see reordering.
	calls := 0
	delay := func(from, to string) time.Duration {
		calls++
		if calls == 1 {
			return 50 * time.Millisecond
		}
		return 0
	}
	net := NewChanNetwork(delay)
	defer net.Close()
	a, _ := net.Register("a")
	b, _ := net.Register("b")
	if err := a.Send("b", Message{Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{Step: 2}); err != nil {
		t.Fatal(err)
	}
	m1, ok := b.Recv(time.Second)
	if !ok {
		t.Fatal("no first delivery")
	}
	if m1.Step != 2 {
		t.Fatalf("expected reordered delivery, got step %d first", m1.Step)
	}
	m2, ok := b.Recv(time.Second)
	if !ok || m2.Step != 1 {
		t.Fatalf("second delivery: ok=%v %+v", ok, m2)
	}
}

func TestCollectorQuorum(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	senders := make([]Endpoint, 5)
	for i := range senders {
		senders[i], _ = net.Register(fmt.Sprintf("w%d", i))
	}
	for i, s := range senders {
		if err := s.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: tensor.Vector{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	c := wholeCollector(recv, 1)
	msgs, err := collect(c, KindGradient, 0, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("collected %d, want 3", len(msgs))
	}
	seen := map[string]bool{}
	for _, m := range msgs {
		if seen[m.From] {
			t.Fatalf("duplicate sender %s in quorum", m.From)
		}
		seen[m.From] = true
	}
}

// Regression for the map-iteration quorum bug: with q+3 senders buffered,
// Collect must return exactly the FIRST q in receipt order — the paper's
// "aggregate the first q received", literally. The old implementation
// ranged over a Go map, so both the selected set and its order varied
// between runs.
func TestCollectorArrivalOrder(t *testing.T) {
	const senders, q = 7, 4 // q+3 senders buffered before Collect
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	eps := make([]Endpoint, senders)
	for s := range eps {
		eps[s], _ = net.Register(fmt.Sprintf("w%d", s))
	}
	// Interleave with a dash of noise: duplicates and another kind must not
	// displace anyone from the arrival order.
	order := []int{3, 0, 5, 1, 3, 6, 2, 4} // sender 3 repeats: dup ignored
	for _, s := range order {
		if err := eps[s].Send("srv", Message{Kind: KindGradient, Step: 2, Vec: tensor.Vector{float64(s)}}); err != nil {
			t.Fatal(err)
		}
		if err := eps[s].Send("srv", Message{Kind: KindPeerParams, Step: 2, Vec: tensor.Vector{-1}}); err != nil {
			t.Fatal(err)
		}
	}
	c := wholeCollector(recv, 1)
	c.Advance(2)
	msgs, err := collect(c, KindGradient, 2, q, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"w3", "w0", "w5", "w1"} // first q distinct senders, receipt order
	if len(msgs) != q {
		t.Fatalf("collected %d, want %d", len(msgs), q)
	}
	for i, m := range msgs {
		if m.From != want[i] {
			t.Fatalf("position %d: got %s, want %s (full order: %v)", i, m.From, want[i], msgs)
		}
		if m.Vec[0] != float64(want[i][1]-'0') {
			t.Fatalf("position %d: payload %v does not match sender %s", i, m.Vec, m.From)
		}
	}
}

// Regression for unbounded future-step buffering: a sender spraying steps
// t+1..t+N must cost at most Horizon steps of buffer, with the remainder
// dropped and counted.
func TestCollectorFutureHorizonBounded(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	byz, _ := net.Register("byz")
	honest, _ := net.Register("honest")

	c := wholeCollector(recv, 1)
	c.Horizon = 16
	const spray = 200
	for s := 1; s <= spray; s++ {
		if err := byz.Send("srv", Message{Kind: KindGradient, Step: s, Vec: tensor.Vector{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := honest.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: tensor.Vector{0}}); err != nil {
		t.Fatal(err)
	}
	msgs, err := collect(c, KindGradient, 0, 1, time.Second)
	if err != nil || msgs[0].From != "honest" {
		t.Fatalf("collect: %v %+v", err, msgs)
	}
	if got := c.Metrics.DroppedFuture.Load(); got != uint64(spray-c.Horizon) {
		t.Fatalf("DroppedFuture = %d, want %d", got, spray-c.Horizon)
	}
	for s := 1; s <= c.Horizon; s++ {
		if buffered(c, KindGradient, s) != 1 {
			t.Fatalf("step %d within horizon not buffered", s)
		}
	}
	for s := c.Horizon + 1; s <= spray; s++ {
		if buffered(c, KindGradient, s) != 0 {
			t.Fatalf("step %d beyond horizon buffered", s)
		}
	}
}

// Junk message kinds must never be buffered: they are never collected, so
// buffering them would hand a Byzantine sender a ~85× multiplier on the
// horizon memory bound (one buffer per kind byte per step).
func TestCollectorDropsInvalidKinds(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	byz, _ := net.Register("byz")
	honest, _ := net.Register("honest")
	for _, k := range []Kind{0, 4, 77, 255} {
		if err := byz.Send("srv", Message{Kind: k, Step: 0, Vec: tensor.Vector{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := honest.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: tensor.Vector{0}}); err != nil {
		t.Fatal(err)
	}
	c := wholeCollector(recv, 1)
	if msgs, err := collect(c, KindGradient, 0, 1, time.Second); err != nil || msgs[0].From != "honest" {
		t.Fatalf("collect: %v %+v", err, msgs)
	}
	for _, k := range []Kind{0, 4, 77, 255} {
		if buffered(c, k, 0) != 0 {
			t.Fatalf("invalid kind %d buffered", k)
		}
	}
}

// An empty quorum is satisfied by silence — Collect(q ≤ 0) must return
// immediately without touching the buffer (regression: the arrival-order
// rebuild briefly made this a nil-map dereference).
func TestCollectorZeroQuorum(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	c := wholeCollector(recv, 1)
	for _, q := range []int{0, -1} {
		msgs, err := collect(c, KindPeerParams, 3, q, time.Second)
		if err != nil || len(msgs) != 0 {
			t.Fatalf("Collect(q=%d) = %v, %v", q, msgs, err)
		}
		// With a self vector the fold still runs, over the local input alone.
		var got []string
		_, err = c.Collect(KindPeerParams, 3, q, tensor.Vector{7}, "me", false,
			func(_, _ int, senders []string, inputs []tensor.Vector) error {
				got = append(got, fmt.Sprint(senders, inputs))
				return nil
			}, time.Second)
		if err != nil || len(got) != 1 || got[0] != "[me] [[7]]" {
			t.Fatalf("Collect(q=%d, self) folded %v, %v", q, got, err)
		}
	}
}

func TestCollectorDedupesSenders(t *testing.T) {
	// A Byzantine sender flooding copies must not fill the quorum alone.
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	byz, _ := net.Register("byz")
	honest, _ := net.Register("honest")

	for i := 0; i < 10; i++ {
		if err := byz.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: tensor.Vector{666}}); err != nil {
			t.Fatal(err)
		}
	}
	c := wholeCollector(recv, 1)
	if _, err := collect(c, KindGradient, 0, 2, 50*time.Millisecond); err == nil {
		t.Fatal("quorum of 2 satisfied by a single flooding sender")
	}
	if err := honest.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	msgs, err := collect(c, KindGradient, 0, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("collected %d", len(msgs))
	}
}

func TestCollectorBuffersFutureDropsPast(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	w, _ := net.Register("w")

	// A future-step message and a stale one arrive while collecting step 1.
	if err := w.Send("srv", Message{Kind: KindGradient, Step: 2, Vec: tensor.Vector{2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: tensor.Vector{0}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Send("srv", Message{Kind: KindGradient, Step: 1, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	c := wholeCollector(recv, 1)
	msgs, err := collect(c, KindGradient, 1, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].Vec[0] != 1 {
		t.Fatalf("collected wrong step payload: %+v", msgs[0])
	}
	// The future message is buffered and satisfies the next round instantly.
	if buffered(c, KindGradient, 2) != 1 {
		t.Fatalf("future message not buffered: %d", buffered(c, KindGradient, 2))
	}
	msgs, err = collect(c, KindGradient, 2, 1, time.Second)
	if err != nil || msgs[0].Vec[0] != 2 {
		t.Fatalf("future buffering broken: %v %+v", err, msgs)
	}
}

func TestCollectorAdvanceDropsStale(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	w, _ := net.Register("w")
	if err := w.Send("srv", Message{Kind: KindParams, Step: 3, Vec: tensor.Vector{3}}); err != nil {
		t.Fatal(err)
	}
	c := wholeCollector(recv, 1)
	// Pull it into the buffer by collecting a different kind with timeout.
	_, _ = collect(c, KindGradient, 3, 1, 20*time.Millisecond)
	if buffered(c, KindParams, 3) != 1 {
		t.Fatal("message not buffered")
	}
	c.Advance(5)
	if buffered(c, KindParams, 3) != 0 {
		t.Fatal("Advance did not drop stale buffer")
	}
}

// TestCollectorTimeoutMessage: a quorum that does not fill says how far it
// got and names the senders — the ones that did arrive and, once a
// membership is pinned, the members the first unfolded shard still waits on.
func TestCollectorTimeoutMessage(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	eps := map[string]Endpoint{}
	for _, id := range []string{"a", "b", "c"} {
		eps[id], _ = net.Register(id)
	}
	noFold := func(int, int, []string, []tensor.Vector) error { return nil }
	vec := tensor.Vector{1, 2, 3, 4}

	c := wholeCollector(recv, 4)
	_ = eps["b"].Send("srv", Message{Kind: KindGradient, Step: 7, Vec: vec})
	_ = eps["a"].Send("srv", Message{Kind: KindGradient, Step: 7, Vec: vec})
	_, err := c.Collect(KindGradient, 7, 4, nil, "", false, noFold, 10*time.Millisecond)
	if !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("expected a quorum timeout, got %v", err)
	}
	for _, want := range []string{"have 2/4 gradient messages for step 7", "arrived: b a"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("one-shard timeout %q does not say %q", err, want)
		}
	}

	// Two shards, pinned: c and a fill shard 0 and are pinned; shard 1 has
	// c's frame only (b's is outside the pin and discarded).
	c = NewCollector(recv, NewShardLayout(4, 2))
	fc := SplitMessage(Message{Kind: KindGradient, Step: 8, Vec: vec}, 2)
	_ = eps["c"].Send("srv", fc[0])
	_ = eps["a"].Send("srv", fc[0])
	_ = eps["b"].Send("srv", fc[1])
	_ = eps["c"].Send("srv", fc[1])
	_, err = c.Collect(KindGradient, 8, 2, nil, "", true, noFold, 10*time.Millisecond)
	if !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("expected a quorum timeout, got %v", err)
	}
	for _, want := range []string{"have 1/2 gradient messages for step 8", "shard 1, 1/2 shards folded",
		"arrived: c", "pinned, still missing: a"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("pinned timeout %q does not say %q", err, want)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", map[string]string{"a": a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	vec := tensor.Vector{1.5, -2.5, 3.25}
	if err := b.Send("a", Message{Kind: KindGradient, Step: 4, Vec: vec}); err != nil {
		t.Fatal(err)
	}
	m, ok := a.Recv(2 * time.Second)
	if !ok {
		t.Fatal("no TCP delivery")
	}
	if m.From != "b" || m.Kind != KindGradient || m.Step != 4 {
		t.Fatalf("header mismatch: %+v", m)
	}
	for i := range vec {
		if m.Vec[i] != vec[i] {
			t.Fatalf("payload corrupted: %v", m.Vec)
		}
	}
}

func TestTCPManyMessagesBothDirections(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", map[string]string{"a": a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("b", b.Addr()); err != nil { // wire the reverse direction
		t.Fatal(err)
	}
	if err := a.AddPeer("a", "self"); err == nil {
		t.Fatal("self-peering accepted")
	}

	const n = 50
	for i := 0; i < n; i++ {
		if err := b.Send("a", Message{Kind: KindParams, Step: i, Vec: tensor.Vector{float64(i)}}); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", Message{Kind: KindGradient, Step: i, Vec: tensor.Vector{float64(-i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := a.Recv(2 * time.Second); !ok {
			t.Fatalf("a missed message %d", i)
		}
		if _, ok := b.Recv(2 * time.Second); !ok {
			t.Fatalf("b missed message %d", i)
		}
	}
}

func TestTCPSendUnknownPeer(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("ghost", Message{}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestLatencyModelProperties(t *testing.T) {
	l := NewLatencyModel(100e-6, 0.3, 1.25e9, 1)
	var sum float64
	for i := 0; i < 1000; i++ {
		d := l.Sample("a", "b", 1000)
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
		sum += d
	}
	mean := sum / 1000
	if mean < 50e-6 || mean > 500e-6 {
		t.Fatalf("mean latency %v out of plausible band", mean)
	}
	// Bandwidth term dominates for large payloads.
	big := l.Sample("a", "b", 125_000_000) // 0.1 s at 1.25 GB/s
	if big < 0.09 {
		t.Fatalf("bandwidth term missing: %v", big)
	}
	// Node slowdown multiplies.
	l.NodeSlowdown = map[string]float64{"slow": 100}
	if f := l.Sample("slow", "b", 0); f < 100*50e-6*0.1 {
		t.Fatalf("slowdown not applied: %v", f)
	}
}

func TestLatencyModelDeterministicWithoutJitter(t *testing.T) {
	l := NewLatencyModel(1e-3, 0, 0, 1)
	if l.Sample("a", "b", 0) != 1e-3 {
		t.Fatal("jitter-free latency should equal base")
	}
}

func TestQuorumArrival(t *testing.T) {
	arr := []float64{5, 1, 3, 2, 4}
	idx, when := QuorumArrival(arr, 3)
	if when != 3 {
		t.Fatalf("q-th arrival time %v, want 3", when)
	}
	want := map[int]bool{1: true, 3: true, 2: true}
	for _, i := range idx {
		if !want[i] {
			t.Fatalf("unexpected index %d in quorum", i)
		}
	}
}

func TestQuorumArrivalWithSilentNodes(t *testing.T) {
	inf := math.Inf(1)
	// 2 live, 2 silent, quorum of 3 → impossible.
	if _, when := QuorumArrival([]float64{1, inf, 2, inf}, 3); !math.IsInf(when, 1) {
		t.Fatalf("expected +Inf, got %v", when)
	}
	// quorum of 2 completes at t=2 despite the silent nodes.
	idx, when := QuorumArrival([]float64{1, inf, 2, inf}, 2)
	if when != 2 || len(idx) != 2 {
		t.Fatalf("got %v at %v", idx, when)
	}
	// quorum larger than the population is impossible.
	if _, when := QuorumArrival([]float64{1}, 2); !math.IsInf(when, 1) {
		t.Fatalf("expected +Inf, got %v", when)
	}
}

func TestVectorBytes(t *testing.T) {
	if VectorBytes(0) <= 0 {
		t.Fatal("framing overhead missing")
	}
	if VectorBytes(100)-VectorBytes(0) != 800 {
		t.Fatal("per-coordinate size wrong")
	}
}
