package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// stubEndpoint records sends and can simulate a slow link: with gate set,
// every Send announces itself on inSend and then parks until gate closes.
type stubEndpoint struct {
	mu     sync.Mutex
	sent   map[string][]Message
	lent   map[string][]*float64 // where each non-empty payload lay, for identity only
	gate   chan struct{}
	inSend chan struct{}
	closed bool
}

func newStubEndpoint() *stubEndpoint {
	return &stubEndpoint{sent: make(map[string][]Message), lent: make(map[string][]*float64)}
}

func (s *stubEndpoint) ID() string { return "stub" }

func (s *stubEndpoint) Send(to string, m Message) error {
	if s.gate != nil {
		s.inSend <- struct{}{}
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent[to] = append(s.sent[to], m.Clone()) // Send only borrows m.Vec: record a copy
	if len(m.Vec) > 0 {
		s.lent[to] = append(s.lent[to], &m.Vec[0])
	}
	return nil
}

func (s *stubEndpoint) Recv(timeout time.Duration) (Message, bool) { return Message{}, false }

func (s *stubEndpoint) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *stubEndpoint) sentTo(to string) []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Message(nil), s.sent[to]...)
}

// TestCouriersDeliverAllAndFlushOnClose pins the core contract: every
// accepted frame reaches the inner endpoint in per-link FIFO order, and
// Close drains what is still queued before closing the inner endpoint.
func TestCouriersDeliverAllAndFlushOnClose(t *testing.T) {
	stub := newStubEndpoint()
	c := NewCouriers(stub, MailboxConfig{Cap: 4, Policy: Backpressure})
	const dests, perDest = 3, 25
	for i := 0; i < perDest; i++ {
		for d := 0; d < dests; d++ {
			if err := c.Send(fmt.Sprintf("n%d", d), Message{From: "me", Step: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dests; d++ {
		got := stub.sentTo(fmt.Sprintf("n%d", d))
		if len(got) != perDest {
			t.Fatalf("n%d received %d frames, want %d", d, len(got), perDest)
		}
		for i, m := range got {
			if m.Step != i {
				t.Fatalf("n%d frame %d has step %d: per-link FIFO violated", d, i, m.Step)
			}
		}
	}
	if !stub.closed {
		t.Fatal("Close did not close the inner endpoint")
	}
	if err := c.Send("n0", Message{}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

// TestCouriersSnapshotAtEnqueue pins the clone-at-enqueue contract: the node
// loop keeps mutating its vector in place, so the couriers must snapshot the
// payload when they accept the frame, not when a link finally drains — once
// for the whole broadcast, every link lending the same snapshot.
func TestCouriersSnapshotAtEnqueue(t *testing.T) {
	tos := []string{"n0", "n1", "n2", "n3"}
	stub := newStubEndpoint()
	stub.gate = make(chan struct{})
	stub.inSend = make(chan struct{}, len(tos))
	c := NewCouriers(stub, MailboxConfig{Cap: 4, Policy: Backpressure})
	vec := tensor.Vector{1, 2, 3}
	if err := c.Broadcast(tos, Message{From: "me", Vec: vec}); err != nil {
		t.Fatal(err)
	}
	for range tos {
		<-stub.inSend // every courier holds the frame, parked in its slow link
	}
	vec[0] = 42 // the sender moves on and overwrites its buffer
	close(stub.gate)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, to := range tos {
		got := stub.sentTo(to)
		if len(got) != 1 || got[0].Vec[0] != 1 {
			t.Fatalf("%s: delivered payload %v: snapshot not taken at enqueue", to, got)
		}
		if stub.lent[to][0] == &vec[0] || stub.lent[to][0] != stub.lent[tos[0]][0] {
			t.Fatalf("%s was lent a vector of its own: the broadcast was snapshotted more than once", to)
		}
	}
}

// TestCouriersDropNewestOnSlowLink pins the bounded-outbox behaviour: with
// the link parked mid-Send, sends past the cap are shed and counted, and
// the survivors are the oldest queued frames.
func TestCouriersDropNewestOnSlowLink(t *testing.T) {
	const cap, extra = 2, 3
	stub := newStubEndpoint()
	stub.gate = make(chan struct{})
	stub.inSend = make(chan struct{}, 8) // roomy: announces keep coming after the gate opens
	c := NewCouriers(stub, MailboxConfig{Cap: cap, Policy: DropNewest})
	if err := c.Send("n0", Message{Step: 0}); err != nil {
		t.Fatal(err)
	}
	<-stub.inSend // frame 0 is out of the queue, parked in the link
	for i := 1; i <= cap+extra; i++ {
		if err := c.Send("n0", Message{Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Metrics().CourierDropped.Load(); got != extra {
		t.Fatalf("DroppedOverflow = %d, want %d", got, extra)
	}
	close(stub.gate)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := stub.sentTo("n0")
	if len(got) != 1+cap {
		t.Fatalf("delivered %d frames, want %d", len(got), 1+cap)
	}
	for i, m := range got {
		if m.Step != i {
			t.Fatalf("frame %d has step %d: drop-newest must keep the oldest queued", i, m.Step)
		}
	}
}

// TestCouriersConcurrentSenders exercises the lazy link creation and the
// shared close path under the race detector.
func TestCouriersConcurrentSenders(t *testing.T) {
	stub := newStubEndpoint()
	c := NewCouriers(stub, MailboxConfig{Cap: 8, Policy: Backpressure})
	const goroutines, perG, dests = 6, 50, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = c.Send(fmt.Sprintf("n%d", (g+i)%dests), Message{Step: i})
			}
		}(g)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for d := 0; d < dests; d++ {
		total += len(stub.sentTo(fmt.Sprintf("n%d", d)))
	}
	if total != goroutines*perG {
		t.Fatalf("delivered %d frames, want %d", total, goroutines*perG)
	}
}
