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

// TestCollectorMembership: quorums are scoped to the roster in force at each
// frame's step, at the one-shard layout and at a sharded one — every frame
// of an outsider is dropped and counted, and can never fill a slot.
func TestCollectorMembership(t *testing.T) {
	for _, size := range []int{0, 2} {
		t.Run(fmt.Sprintf("shard size %d", size), func(t *testing.T) {
			net := NewChanNetwork(nil)
			defer net.Close()
			recv, _ := net.Register("srv")
			eps := map[string]Endpoint{}
			for _, id := range []string{"a", "b", "c", "d"} {
				eps[id], _ = net.Register(id)
			}
			layout := NewShardLayout(4, size)
			frames := uint64(layout.Count()) // frames per vector, so drops per outsider
			send := func(id string, step int) {
				t.Helper()
				m := Message{Kind: KindGradient, Step: step, Vec: tensor.Vector{1, 2, 3, 4}}
				if err := SendSharded(eps[id], "srv", m, size); err != nil {
					t.Fatal(err)
				}
			}
			sink := metrics.NewNodeMetrics()
			c := NewCollector(recv, layout)
			c.Membership = epochRoster
			c.Metrics = sink
			round := func(step int, outsider string) {
				t.Helper()
				folded := 0
				_, err := c.Collect(KindGradient, step, 3, nil, "", false,
					func(lo, hi int, senders []string, _ []tensor.Vector) error {
						folded++
						for _, s := range senders {
							if s == outsider {
								return fmt.Errorf("sender %s outside the step-%d roster folded into shard [%d,%d)", s, step, lo, hi)
							}
						}
						return nil
					}, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if folded != layout.Count() {
					t.Fatalf("folded %d shards, want %d", folded, layout.Count())
				}
			}

			// Step 0: d is not yet a member; its frames must never fill a slot
			// even though they arrive first.
			send("d", 0)
			for _, id := range []string{"a", "b", "c"} {
				send(id, 0)
			}
			round(0, "d")
			if got := c.Metrics.DroppedRoster.Load(); got != frames {
				t.Fatalf("DroppedRoster = %d, want %d (one per frame)", got, frames)
			}

			// Step 5: a has left and d has joined; the same quorum math now
			// admits d and rejects a.
			c.Advance(5)
			send("a", 5)
			for _, id := range []string{"b", "c", "d"} {
				send(id, 5)
			}
			round(5, "a")
			if got := sink.DroppedRoster.Load(); got != 2*frames {
				t.Fatalf("DroppedRoster = %d, want %d", got, 2*frames)
			}
		})
	}
}

// TestCollectorCountsWrongDimension: a whole frame whose dimension is not the
// deployment's is counted malformed at every layout — a wrong-dimension
// sprayer must be visible in the drop counters wherever it sprays.
func TestCollectorCountsWrongDimension(t *testing.T) {
	for _, size := range []int{0, 2} {
		t.Run(fmt.Sprintf("shard size %d", size), func(t *testing.T) {
			net := NewChanNetwork(nil)
			defer net.Close()
			recv, _ := net.Register("srv")
			byz, _ := net.Register("byz")
			ok, _ := net.Register("ok")
			for _, d := range []int{1, 3, 5} {
				_ = byz.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: make(tensor.Vector, d)})
			}
			_ = ok.Send("srv", Message{Kind: KindGradient, Step: 0, Vec: make(tensor.Vector, 4)})
			c := NewCollector(recv, NewShardLayout(4, size))
			senders := map[string]bool{}
			_, err := c.Collect(KindGradient, 0, 1, nil, "", false,
				func(_, _ int, from []string, _ []tensor.Vector) error {
					senders[from[0]] = true
					return nil
				}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(senders) != 1 || !senders["ok"] {
				t.Fatalf("quorum filled by %v, want the well-formed sender", senders)
			}
			if got := c.Metrics.DroppedMalformed.Load(); got != 3 {
				t.Fatalf("DroppedMalformed = %d, want 3", got)
			}
		})
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
	c := wholeCollector(recv, 1)
	msgs, step, err := collectAny(c, KindPeerParams, 12, 3, time.Second)
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
	c := wholeCollector(recv, 1)
	c.Horizon = 16
	msgs, step, err := collectAny(c, KindPeerParams, 0, 3, time.Second)
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
	c := wholeCollector(recv, 1)
	// Only one live sender: no step can ever reach q=3, so the rejoiner
	// must time out — the caller then resumes from the checkpoint alone.
	if _, _, err := collectAny(c, KindPeerParams, 0, 3, 100*time.Millisecond); err == nil {
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
	c := NewCollector(recv, layout)
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
