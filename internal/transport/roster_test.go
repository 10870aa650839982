package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// epochRoster is the test double for cluster.Roster.Allows: members of
// {a,b,c} before step 5, {b,c,d} from step 5 on — one join and one leave
// taking effect at the same boundary.
func epochRoster(step int, from string) bool {
	if step < 5 {
		return from == "a" || from == "b" || from == "c"
	}
	return from == "b" || from == "c" || from == "d"
}

func TestCollectorMembership(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	eps := map[string]Endpoint{}
	for _, id := range []string{"a", "b", "c", "d"} {
		eps[id], _ = net.Register(id)
	}
	send := func(id string, step int) {
		t.Helper()
		if err := eps[id].Send("srv", Message{Kind: KindGradient, Step: step, Vec: tensor.Vector{1}}); err != nil {
			t.Fatal(err)
		}
	}

	sink := metrics.NewNodeMetrics()
	c := NewCollector(recv)
	c.Membership = epochRoster
	c.Metrics = sink

	// Step 0: d is not yet a member; its frame must never fill a slot even
	// though it arrives first.
	send("d", 0)
	for _, id := range []string{"a", "b", "c"} {
		send(id, 0)
	}
	msgs, err := c.Collect(KindGradient, 0, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.From == "d" {
			t.Fatal("pre-join sender entered the step-0 quorum")
		}
	}
	if c.Metrics.DroppedRoster.Load() != 1 {
		t.Fatalf("DroppedRoster = %d, want 1", c.Metrics.DroppedRoster.Load())
	}

	// Step 5: a has left and d has joined; the same quorum math now admits
	// d and rejects a.
	c.Advance(5)
	send("a", 5)
	for _, id := range []string{"b", "c", "d"} {
		send(id, 5)
	}
	msgs, err = c.Collect(KindGradient, 5, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.From == "a" {
			t.Fatal("departed sender entered the step-5 quorum")
		}
	}
	if c.Metrics.DroppedRoster.Load() != 2 {
		t.Fatalf("DroppedRoster = %d, want 2", c.Metrics.DroppedRoster.Load())
	}
	if got := sink.DroppedRoster.Load(); got != 2 {
		t.Fatalf("metrics mirror DroppedRoster = %d, want 2", got)
	}
}

func TestShardCollectorMembership(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	eps := map[string]Endpoint{}
	for _, id := range []string{"a", "b", "c", "d"} {
		eps[id], _ = net.Register(id)
	}

	c := NewShardCollector(recv, NewShardLayout(4, 2))
	c.Membership = epochRoster

	vec := tensor.Vector{1, 2, 3, 4}
	// d streams both shards at step 0 — outside the roster, every frame drops.
	if err := SendSharded(eps["d"], "srv", Message{Kind: KindGradient, Step: 0, Vec: vec}, 2); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := SendSharded(eps[id], "srv", Message{Kind: KindGradient, Step: 0, Vec: vec}, 2); err != nil {
			t.Fatal(err)
		}
	}
	var folded int
	_, err := c.Collect(KindGradient, 0, 2, nil, "", false,
		func(lo, hi int, senders []string, inputs []tensor.Vector) error {
			folded++
			for _, s := range senders {
				if s == "d" {
					return fmt.Errorf("pre-join sender %s folded into shard [%d,%d)", s, lo, hi)
				}
			}
			return nil
		}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if folded != 2 {
		t.Fatalf("folded %d shards, want 2", folded)
	}
	if c.Metrics.DroppedRoster.Load() != 2 {
		t.Fatalf("DroppedRoster = %d, want 2 (one per shard frame)", c.Metrics.DroppedRoster.Load())
	}
}

// TestCollectAnyLatchesLiveStep is the rejoin discovery path: a collector
// that does not know the cluster's current step latches onto the first step
// ≥ its floor that completes a quorum.
func TestCollectAnyLatchesLiveStep(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("rejoiner")
	eps := make([]Endpoint, 4)
	for i := range eps {
		eps[i], _ = net.Register(fmt.Sprintf("p%d", i))
	}

	// Live traffic is mid-step-37; the rejoiner's checkpoint said step 12.
	for i, ep := range eps[:3] {
		if err := ep.Send("rejoiner", Message{Kind: KindPeerParams, Step: 37, Vec: tensor.Vector{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector(recv)
	msgs, step, err := c.CollectAny(KindPeerParams, 12, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if step != 37 || len(msgs) != 3 {
		t.Fatalf("CollectAny = %d msgs at step %d, want 3 at 37", len(msgs), step)
	}
	seen := map[string]bool{}
	for _, m := range msgs {
		if seen[m.From] {
			t.Fatalf("duplicate sender %s in rejoin quorum", m.From)
		}
		seen[m.From] = true
	}
}

// TestCollectAnyMobileFloor: the cluster may be arbitrarily far ahead of the
// checkpoint — beyond the buffering horizon. The floor must chase the live
// traffic instead of dropping it.
func TestCollectAnyMobileFloor(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("rejoiner")
	eps := make([]Endpoint, 3)
	for i := range eps {
		eps[i], _ = net.Register(fmt.Sprintf("p%d", i))
	}

	const live = 5000 // far beyond floor 0 + DefaultHorizon
	for i, ep := range eps {
		if err := ep.Send("rejoiner", Message{Kind: KindPeerParams, Step: live, Vec: tensor.Vector{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector(recv)
	c.Horizon = 16
	msgs, step, err := c.CollectAny(KindPeerParams, 0, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if step != live || len(msgs) != 3 {
		t.Fatalf("CollectAny = %d msgs at step %d, want 3 at %d", len(msgs), step, live)
	}
}

func TestCollectAnyTimesOut(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("rejoiner")
	p, _ := net.Register("p0")
	if err := p.Send("rejoiner", Message{Kind: KindPeerParams, Step: 9, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	c := NewCollector(recv)
	// Only one live sender: no step can ever reach q=3, so the rejoiner
	// must time out — the caller then resumes from the checkpoint alone.
	if _, _, err := c.CollectAny(KindPeerParams, 0, 3, 100*time.Millisecond); err == nil {
		t.Fatal("CollectAny returned without a quorum")
	}
}

// TestShardCollectorPinnedFailover exercises the pinned-membership liveness
// caveat end to end at the transport layer: a pinned member that goes silent
// mid-round must surface as a clean timeout (never a deadlock), and
// ResetRound must let the caller retry the round with a fresh pin drawn
// from the senders still alive.
func TestShardCollectorPinnedFailover(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("srv")
	eps := map[string]Endpoint{}
	for _, id := range []string{"a", "b", "c", "d"} {
		eps[id], _ = net.Register(id)
	}

	layout := NewShardLayout(4, 2) // two shards
	c := NewShardCollector(recv, layout)
	vec := tensor.Vector{1, 2, 3, 4}
	shard := func(id string, idx int, step int) {
		t.Helper()
		lo, hi := layout.Bounds(idx)
		if err := eps[id].Send("srv", Message{
			Kind: KindGradient, Step: step, Vec: vec[lo:hi],
			Shard: ShardMeta{Index: idx, Count: 2, Offset: lo},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Round 1: a and b complete shard 0 and get pinned; a then goes silent,
	// so shard 1 can never complete under the pin [a b].
	shard("a", 0, 7)
	shard("b", 0, 7)
	shard("b", 1, 7)
	_, err := c.Collect(KindGradient, 7, 2, nil, "", true,
		func(lo, hi int, senders []string, inputs []tensor.Vector) error { return nil },
		200*time.Millisecond)
	if err == nil {
		t.Fatal("pinned round with a silent member completed")
	}

	// Failover: abandon the stalled round and retry with the senders that
	// are still alive. The fresh pin must exclude the silent member.
	c.ResetRound(KindGradient, 7)
	for _, id := range []string{"b", "c", "d"} {
		shard(id, 0, 7)
		shard(id, 1, 7)
	}
	var folded int
	pinned, err := c.Collect(KindGradient, 7, 2, nil, "", true,
		func(lo, hi int, senders []string, inputs []tensor.Vector) error {
			folded++
			return nil
		}, time.Second)
	if err != nil {
		t.Fatalf("retry after ResetRound failed: %v", err)
	}
	if folded != 2 {
		t.Fatalf("retry folded %d shards, want 2", folded)
	}
	if len(pinned) != 2 {
		t.Fatalf("retry pinned %v, want 2 members", pinned)
	}
	for _, id := range pinned {
		if id == "a" {
			t.Fatalf("silent member re-pinned after failover: %v", pinned)
		}
	}
}

// TestTCPAdmission: the hello v3 admission gate. A listener with an
// admission check refuses connections whose announced roster intent the
// check rejects — counted, and invisible to the quorum layer.
func TestTCPAdmission(t *testing.T) {
	srv, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var gotHello Hello
	srv.SetAdmission(func(h Hello) bool {
		gotHello = h
		return h.Intent != IntentJoin // fixed deployment: refuse joiners
	})

	// An established member connects and delivers normally.
	member, err := ListenTCP("member", "127.0.0.1:0", map[string]string{"srv": srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	if err := member.Send("srv", Message{Kind: KindGradient, Step: 1, Vec: tensor.Vector{1}}); err != nil {
		t.Fatal(err)
	}
	if m, ok := srv.Recv(2 * time.Second); !ok || m.From != "member" {
		t.Fatalf("member delivery failed: %+v %v", m, ok)
	}
	if gotHello.ID != "member" || gotHello.Intent != IntentMember {
		t.Fatalf("admission saw %+v, want member hello", gotHello)
	}

	// A joiner announces its intent and is refused at the handshake.
	joiner, err := ListenTCP("joiner", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	joiner.SetHelloRoster(IntentJoin, 42, "")
	if err := joiner.AddPeer("srv", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	// The dial itself succeeds (refusal happens after the hello is read),
	// so the send may enter the socket buffer; the message must simply
	// never surface on the server side.
	_ = joiner.Send("srv", Message{Kind: KindGradient, Step: 1, Vec: tensor.Vector{2}})
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().DroppedUnadmitted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission refusal never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gotHello.ID != "joiner" || gotHello.Intent != IntentJoin || gotHello.EffectiveStep != 42 {
		t.Fatalf("admission saw %+v, want joiner hello with step 42", gotHello)
	}
	if m, ok := srv.Recv(100 * time.Millisecond); ok && m.From == "joiner" {
		t.Fatal("refused joiner's frame surfaced at the quorum layer")
	}
}
