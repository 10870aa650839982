package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// refMailbox is the single-threaded reference model the bounded-policy
// property tests compare against: arrival order with per-sender counts,
// evicting exactly as the policy specifies.
type refMailbox struct {
	cfg       MailboxConfig
	order     []Message
	perSender map[string]int
	dropped   uint64
}

func newRefMailbox(cfg MailboxConfig) *refMailbox {
	return &refMailbox{cfg: cfg, perSender: make(map[string]int)}
}

func (r *refMailbox) put(m Message) {
	if r.cfg.Bounded() && r.perSender[m.From] >= r.cfg.Cap {
		switch r.cfg.Policy {
		case DropNewest:
			r.dropped++
			return
		case DropOldest:
			for i, q := range r.order {
				if q.From == m.From {
					r.order = append(r.order[:i], r.order[i+1:]...)
					break
				}
			}
			r.perSender[m.From]--
			r.dropped++
		}
	}
	r.order = append(r.order, m)
	r.perSender[m.From]++
}

// drain empties a real mailbox without blocking past its current contents.
func drainMailbox(m *Mailbox) []Message {
	var out []Message
	for {
		msg, ok := m.Recv(0)
		if !ok {
			return out
		}
		out = append(out, msg)
	}
}

// TestMailboxPolicyPropertySurvivors drives random seeded Put sequences
// from k interleaved senders through each drop policy — single-goroutine,
// so the interleaving itself is the seed's choice — and asserts the real
// mailbox yields EXACTLY the reference model's surviving messages, in the
// same global arrival order, with the drop counter matching.
func TestMailboxPolicyPropertySurvivors(t *testing.T) {
	policies := []OverflowPolicy{DropNewest, DropOldest}
	for _, policy := range policies {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := MailboxConfig{Cap: 1 + rng.Intn(6), Policy: policy}
			box := NewMailboxWith(cfg)
			ref := newRefMailbox(cfg)
			senders := 2 + rng.Intn(4)
			steps := make([]int, senders)
			puts := 50 + rng.Intn(150)
			for i := 0; i < puts; i++ {
				s := rng.Intn(senders)
				m := Message{From: fmt.Sprintf("s%d", s), Kind: KindGradient, Step: steps[s]}
				steps[s]++
				box.Put(m)
				ref.put(m)
			}
			got := drainMailbox(box)
			if len(got) != len(ref.order) {
				t.Fatalf("%v seed %d: %d survivors, reference %d",
					policy, seed, len(got), len(ref.order))
			}
			for i := range got {
				if got[i].From != ref.order[i].From || got[i].Step != ref.order[i].Step {
					t.Fatalf("%v seed %d: survivor %d = %s/%d, reference %s/%d",
						policy, seed, i, got[i].From, got[i].Step,
						ref.order[i].From, ref.order[i].Step)
				}
			}
			if box.Metrics().DroppedOverflow.Load() != ref.dropped {
				t.Fatalf("%v seed %d: DroppedOverflow = %d, reference %d",
					policy, seed, box.Metrics().DroppedOverflow.Load(), ref.dropped)
			}
			if uint64(len(got))+box.Metrics().DroppedOverflow.Load() != uint64(puts) {
				t.Fatalf("%v seed %d: %d survivors + %d dropped ≠ %d puts",
					policy, seed, len(got), box.Metrics().DroppedOverflow.Load(), puts)
			}
		}
	}
}

// TestMailboxUnboundedKeepsEverything pins the zero-config baseline the
// bit-identity guarantee rests on: no cap, no drops, pure global FIFO.
func TestMailboxUnboundedKeepsEverything(t *testing.T) {
	box := NewMailbox()
	const puts = 500
	for i := 0; i < puts; i++ {
		box.Put(Message{From: fmt.Sprintf("s%d", i%7), Step: i})
	}
	got := drainMailbox(box)
	if len(got) != puts {
		t.Fatalf("unbounded mailbox kept %d of %d", len(got), puts)
	}
	for i, m := range got {
		if m.Step != i {
			t.Fatalf("message %d has step %d: FIFO violated", i, m.Step)
		}
	}
	if box.Metrics().DroppedOverflow.Load() != 0 {
		t.Fatalf("unbounded mailbox counted %d overflow drops", box.Metrics().DroppedOverflow.Load())
	}
}

// TestMailboxDropOldestKeepsNewestPerSender is the superseded-step
// property that makes drop-oldest protocol-safe: whatever the interleaving,
// each sender's NEWEST frame always survives, and the survivors are exactly
// that sender's last cap frames.
func TestMailboxDropOldestKeepsNewestPerSender(t *testing.T) {
	const senders, perSender, cap = 5, 40, 3
	rng := rand.New(rand.NewSource(99))
	box := NewMailboxWith(MailboxConfig{Cap: cap, Policy: DropOldest})
	// Interleave by drawing the next sender at random until each has sent
	// steps 0..perSender-1 in its own order.
	next := make([]int, senders)
	remaining := senders * perSender
	for remaining > 0 {
		s := rng.Intn(senders)
		if next[s] == perSender {
			continue
		}
		box.Put(Message{From: fmt.Sprintf("s%d", s), Kind: KindGradient, Step: next[s]})
		next[s]++
		remaining--
	}
	bySender := make(map[string][]int)
	for _, m := range drainMailbox(box) {
		bySender[m.From] = append(bySender[m.From], m.Step)
	}
	for s := 0; s < senders; s++ {
		id := fmt.Sprintf("s%d", s)
		got := bySender[id]
		if len(got) != cap {
			t.Fatalf("%s: %d survivors, want cap %d", id, len(got), cap)
		}
		// Per-sender arrival order is that sender's send order, so the
		// survivors must be the last cap steps, newest included.
		for i, step := range got {
			if want := perSender - cap + i; step != want {
				t.Fatalf("%s survivor %d: step %d, want %d (newest-tail property)",
					id, i, step, want)
			}
		}
	}
	wantDropped := uint64(senders * (perSender - cap))
	if box.Metrics().DroppedOverflow.Load() != wantDropped {
		t.Fatalf("DroppedOverflow = %d, want %d", box.Metrics().DroppedOverflow.Load(), wantDropped)
	}
}

// TestMailboxBackpressureBlocksUntilDrained pins the blocking policy: a
// producer past the cap parks in Put, resumes as the consumer drains, and
// nothing is ever dropped.
func TestMailboxBackpressureBlocksUntilDrained(t *testing.T) {
	const cap, total = 2, 10
	box := NewMailboxWith(MailboxConfig{Cap: cap, Policy: Backpressure})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			box.Put(Message{From: "p", Step: i})
		}
	}()
	// The producer must park at the cap, not run ahead.
	deadline := time.Now().Add(time.Second)
	for box.Len() < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := box.Len(); n != cap {
		t.Fatalf("producer ran past the cap: Len = %d", n)
	}
	select {
	case <-done:
		t.Fatal("producer finished while mailbox was full")
	default:
	}
	for i := 0; i < total; i++ {
		m, ok := box.Recv(time.Second)
		if !ok || m.Step != i {
			t.Fatalf("Recv %d: ok=%v step=%d", i, ok, m.Step)
		}
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("producer still blocked after a full drain")
	}
	if box.Metrics().DroppedOverflow.Load() != 0 || box.Metrics().DroppedClosed.Load() != 0 {
		t.Fatalf("backpressure dropped: overflow=%d closed=%d",
			box.Metrics().DroppedOverflow.Load(), box.Metrics().DroppedClosed.Load())
	}
}

// TestMailboxBackpressureCloseUnblocks pins the teardown path: a producer
// parked in Put must wake on Close, and its frame is counted under
// DroppedClosed, not silently discarded.
func TestMailboxBackpressureCloseUnblocks(t *testing.T) {
	box := NewMailboxWith(MailboxConfig{Cap: 1, Policy: Backpressure})
	box.Put(Message{Step: 0})
	unblocked := make(chan struct{})
	go func() {
		defer close(unblocked)
		box.Put(Message{Step: 1}) // parks: the box is at cap
	}()
	time.Sleep(20 * time.Millisecond)
	box.Close()
	select {
	case <-unblocked:
	case <-time.After(time.Second):
		t.Fatal("Put did not wake on Close")
	}
	if box.Metrics().DroppedClosed.Load() != 1 {
		t.Fatalf("DroppedClosed = %d, want 1", box.Metrics().DroppedClosed.Load())
	}
}

// TestMailboxDroppedClosedCounts pins the fix for the silent-discard bug:
// every Put after Close increments DroppedClosed.
func TestMailboxDroppedClosedCounts(t *testing.T) {
	box := NewMailbox()
	box.Put(Message{Step: 0})
	box.Close()
	for i := 0; i < 3; i++ {
		box.Put(Message{Step: i})
	}
	if box.Metrics().DroppedClosed.Load() != 3 {
		t.Fatalf("DroppedClosed = %d, want 3", box.Metrics().DroppedClosed.Load())
	}
	// The pre-close message still drains: Close stops intake, not delivery.
	if m, ok := box.Recv(0); !ok || m.Step != 0 {
		t.Fatalf("pre-close message lost: ok=%v step=%d", ok, m.Step)
	}
}

// TestMailboxBoundedConcurrentAccounting is the race-clean chaos check:
// many producers spray a bounded drop-oldest box while a consumer drains,
// and afterwards every frame is accounted for — received, still buffered,
// or counted dropped — with every per-sender queue within its cap.
func TestMailboxBoundedConcurrentAccounting(t *testing.T) {
	const producers, perProducer, cap = 8, 300, 4
	box := NewMailboxWith(MailboxConfig{Cap: cap, Policy: DropOldest})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := fmt.Sprintf("p%d", p)
			for i := 0; i < perProducer; i++ {
				box.Put(Message{From: id, Step: i})
				if box.PeerLen(id) > cap {
					t.Errorf("%s queue exceeded cap", id)
					return
				}
			}
		}(p)
	}
	var received uint64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			if _, ok := box.Recv(50 * time.Millisecond); !ok {
				return
			}
			received++
		}
	}()
	wg.Wait()
	<-consumerDone
	received += uint64(len(drainMailbox(box)))
	const sent = producers * perProducer
	if got := received + box.Metrics().DroppedOverflow.Load(); got != sent {
		t.Fatalf("accounting: received %d + dropped %d = %d, want %d",
			received, box.Metrics().DroppedOverflow.Load(), got, sent)
	}
}

// TestMailboxSpecRoundTrip pins the flag syntax: every bounded config
// formats to a spec that parses back to itself, and the unbounded zero
// value formats as "none".
func TestMailboxSpecRoundTrip(t *testing.T) {
	cases := []MailboxConfig{
		{},
		{Cap: DefaultMailboxCap, Policy: Backpressure},
		{Cap: 1, Policy: DropNewest},
		{Cap: 7, Policy: DropOldest},
	}
	for _, cfg := range cases {
		parsed, err := ParseMailboxSpec(cfg.String())
		if err != nil {
			t.Fatalf("ParseMailboxSpec(%q): %v", cfg.String(), err)
		}
		if parsed != cfg {
			t.Fatalf("round trip %q: got %+v, want %+v", cfg.String(), parsed, cfg)
		}
	}
	if _, err := ParseMailboxSpec("drop-oldest:cap=0"); err == nil {
		t.Fatal("cap=0 spec parsed without error")
	}
	if _, err := ParseMailboxSpec("lossy"); err == nil {
		t.Fatal("unknown policy parsed without error")
	}
	if cfg, err := ParseMailboxSpec("drop-newest"); err != nil || cfg.Cap != DefaultMailboxCap {
		t.Fatalf("bare policy spec: cfg=%+v err=%v", cfg, err)
	}
}

// TestTCPDroppedClosedOnTeardown pins the teardown accounting over real
// sockets: a sender still spraying while the receiver shuts down has its
// in-flight frames counted under DroppedClosed, not silently discarded. A
// backpressure cap of 1 with nobody draining makes the moment
// deterministic: the receiver's read loop is parked inside Put when Close
// arrives, so at least that frame MUST take the counted path.
func TestTCPDroppedClosedOnTeardown(t *testing.T) {
	b, err := ListenTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SetMailbox(MailboxConfig{Cap: 1, Policy: Backpressure}); err != nil {
		t.Fatal(err)
	}
	a, err := ListenTCP("a", "127.0.0.1:0", map[string]string{"b": b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	for i := 0; i < 3; i++ {
		if err := a.Send("b", Message{Kind: KindGradient, Step: i, Vec: tensor.Vector{1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for frame 0 to land; frame 1 is then parked in the read loop's
	// Put (same connection, processed in order), frame 2 queued behind it.
	deadline := time.Now().Add(2 * time.Second)
	for b.box.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.box.Len() == 0 {
		t.Fatal("first frame never arrived")
	}
	time.Sleep(50 * time.Millisecond) // let the read loop park on frame 1
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.Metrics().DroppedClosed.Load(); got == 0 {
		t.Fatal("teardown discarded the parked frame without counting it")
	}
}

// TestChanNetworkBoundedDropCounters pins the in-process network's per-
// endpoint drop accounting: an undrained receiver under a drop policy
// sheds exactly the overflow, visible through the ID's metrics handle —
// which outlives the endpoint, so a node killed and restarted under its
// name keeps its drop history.
func TestChanNetworkBoundedDropCounters(t *testing.T) {
	const cap, extra = 4, 9
	net := NewChanNetwork(nil)
	if err := net.SetMailbox(MailboxConfig{Cap: cap, Policy: DropNewest}); err != nil {
		t.Fatal(err)
	}
	a, err := net.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap+extra; i++ {
		if err := a.Send("b", Message{From: "a", Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := func(id string) (over, closed uint64) {
		h := net.Metrics(id)
		return h.DroppedOverflow.Load(), h.DroppedClosed.Load()
	}
	over, closed := dropped("b")
	if over != extra || closed != 0 {
		t.Fatalf("dropped(b) = (%d, %d), want (%d, 0)", over, closed, extra)
	}
	if over, closed := dropped("nobody"); over != 0 || closed != 0 {
		t.Fatalf("dropped(unknown) = (%d, %d), want zeros", over, closed)
	}
	// Kill and restart b: the new incarnation's mailbox is empty, the
	// counts carry on from the old one's.
	net.Unregister("b")
	if _, err := net.Register("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap+1; i++ {
		if err := a.Send("b", Message{From: "a", Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	if over, closed := dropped("b"); over != extra+1 || closed != 0 {
		t.Fatalf("dropped(b) after restart = (%d, %d), want (%d, 0)", over, closed, extra+1)
	}
	net.Close()
}
