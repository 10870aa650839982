package transport

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// TestCollectorMembership: who may fill a quorum is the node's per-kind
// sender table, at the one-shard layout and at a sharded one. Every frame of
// an (kind, sender) pair the table does not list — an unknown identity, a
// worker posing as a server peer, a peer sending gradients, a kind the node
// never collects — is dropped and counted on arrival: it never fills a slot,
// never occupies a partial reassembly, never costs a validation.
func TestCollectorMembership(t *testing.T) {
	for _, size := range []int{0, 2} {
		t.Run(fmt.Sprintf("shard size %d", size), func(t *testing.T) {
			net := NewChanNetwork(nil)
			defer net.Close()
			recv, _ := net.Register("srv")
			eps := map[string]Endpoint{}
			for _, id := range []string{"w0", "w1", "w2", "ps1", "ps2", "ghost"} {
				eps[id], _ = net.Register(id)
			}
			layout := NewShardLayout(4, size)
			const chunk = 2                                    // every sender streams chunk frames
			frames := uint64(NewShardLayout(4, chunk).Count()) // so this many drops per illegal vector
			send := func(id string, kind Kind, step int) {
				t.Helper()
				m := Message{Kind: kind, Step: step, Vec: tensor.Vector{1, 2, 3, 4}}
				if err := SendSharded(eps[id], "srv", m, chunk); err != nil {
					t.Fatal(err)
				}
			}
			sink := metrics.NewNodeMetrics()
			c := NewCollector(recv, layout)
			c.Metrics = sink
			c.Senders = map[Kind][]string{
				KindGradient:   {"w0", "w1", "w2"},
				KindPeerParams: {"ps1", "ps2"},
			}
			legal := func(kind Kind, from string) bool { return slices.Contains(c.Senders[kind], from) }
			c.Validator = func(m Message) bool {
				if !legal(m.Kind, m.From) {
					t.Errorf("validator charged for a %s frame from %s", m.Kind, m.From)
				}
				return true
			}
			round := func(kind Kind, step, q int) {
				t.Helper()
				folded := 0
				_, err := c.Collect(kind, step, q, nil, "", false,
					func(lo, hi int, senders []string, _ []tensor.Vector) error {
						folded++
						for _, s := range senders {
							if !legal(kind, s) {
								return fmt.Errorf("%s folded into the %s quorum, shard [%d,%d)", s, kind, lo, hi)
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

			// Phase 2: an unknown identity and a declared server peer both send
			// gradients ahead of the workers; neither may fill a slot.
			send("ghost", KindGradient, 0)
			send("ps1", KindGradient, 0)
			for _, id := range []string{"w0", "w1", "w2"} {
				send(id, KindGradient, 0)
			}
			round(KindGradient, 0, 3)
			if got := sink.DroppedRoster.Load(); got != 2*frames {
				t.Fatalf("DroppedRoster = %d, want %d (one per frame)", got, 2*frames)
			}

			// Phase 3: a declared worker's peer-params frames stay out, and so
			// does a kind this node never collects.
			send("w0", KindPeerParams, 0)
			send("ps1", KindParams, 0)
			send("ps1", KindPeerParams, 0)
			send("ps2", KindPeerParams, 0)
			round(KindPeerParams, 0, 2)
			if got := sink.DroppedRoster.Load(); got != 4*frames {
				t.Fatalf("DroppedRoster = %d, want %d", got, 4*frames)
			}

			// A half-sent illegal vector holds no reassembly bytes, and the
			// round that times out beside it says which legal senders it is
			// still waiting on.
			first := SplitMessage(Message{Kind: KindGradient, Step: 1, Vec: tensor.Vector{1, 2, 3, 4}}, chunk)[0]
			_ = eps["ghost"].Send("srv", first)
			send("w1", KindGradient, 1)
			_, err := c.Collect(KindGradient, 1, 3, nil, "", false,
				func(int, int, []string, []tensor.Vector) error { return nil }, 20*time.Millisecond)
			if !errors.Is(err, ErrQuorumTimeout) || !strings.Contains(err.Error(), "arrived: w1; still missing: w0 w2") {
				t.Fatalf("timeout %v does not name the missing legal senders", err)
			}
			if got, want := c.curBytes, 8*4; got != want {
				t.Fatalf("collector holds %d payload bytes, want %d (w1's vector alone)", got, want)
			}
			if got := sink.DroppedRoster.Load(); got != 4*frames+1 {
				t.Fatalf("DroppedRoster = %d, want %d", got, 4*frames+1)
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
