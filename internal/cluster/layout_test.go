package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The layout tests pin what one collector makes uniform: a node's behaviour
// is a function of the arrival schedule and the rule, never of the layout
// its quorums are collected at.

// TestLayoutEquivalenceProperty feeds one seeded arrival schedule —
// senders interleaved across two steps, duplicates carrying a different
// payload, senders arriving after the quorum closed, a stale frame — to a
// node's quorum at the layouts {one shard, prime, non-dividing}, with the
// senders' framings mixed (whole vectors at a sharded receiver, chunk
// streams at a one-shard one). Every layout must pin the same ordered
// first-q sender set and produce the bits of the rule applied to those
// senders' vectors, for both steps; a rule with no streaming path (mda)
// must come out the same through the one-shard adapter even when a shard
// size is asked for.
func TestLayoutEquivalenceProperty(t *testing.T) {
	const (
		dim, n, q  = 40, 9, 7
		chunk      = 7 // what chunk-streaming senders frame at toward a one-shard receiver
		step, kind = 4, transport.KindGradient
	)
	rules := []gar.Rule{gar.Mean{}, gar.Median{}, gar.TrimmedMean{F: 2}, gar.MultiKrum{F: 2}, gar.MDA{F: 2}}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := tensor.NewRNG(seed)
		// vecs[t][i] is sender i's vector for step step+t.
		var vecs [2][]tensor.Vector
		type event struct{ sender, t int }
		var schedule []event
		for ts := range vecs {
			vecs[ts] = make([]tensor.Vector, n)
			for i := range vecs[ts] {
				vecs[ts][i] = rng.NormVec(make(tensor.Vector, dim), 0, 1)
				schedule = append(schedule, event{i, ts})
			}
		}
		perm := rng.Perm(len(schedule))
		// want[t] is the first q distinct senders of step step+t, in order.
		var want [2][]int
		for _, p := range perm {
			if e := schedule[p]; len(want[e.t]) < q {
				want[e.t] = append(want[e.t], e.sender)
			}
		}
		for _, rule := range rules {
			var wantOut [2]tensor.Vector
			for ts := range wantOut {
				inputs := make([]tensor.Vector, q)
				for k, i := range want[ts] {
					inputs[k] = vecs[ts][i]
				}
				var err error
				if wantOut[ts], err = rule.Aggregate(inputs); err != nil {
					t.Fatal(err)
				}
			}
			for _, size := range []int{0, 7, 16} {
				name := fmt.Sprintf("seed %d, %s, shard size %d", seed, rule.Name(), size)
				net := transport.NewChanNetwork(nil)
				recv, _ := net.Register("srv")
				ids := make([]string, n)
				for i := range ids {
					ids[i] = fmt.Sprintf("w%d", i)
				}
				qm := newQuorum(recv, dim, size, time.Second, metrics.NewNodeMetrics(),
					map[transport.Kind][]string{kind: ids}, rule)
				layout := qm.col.Layout
				if _, streams := rule.(gar.StreamingRule); !streams && layout.Count() != 1 {
					t.Fatalf("%s: a rule without a streaming path got %d shards", name, layout.Count())
				}
				eps := make([]transport.Endpoint, n)
				for i := range eps {
					eps[i], _ = net.Register(ids[i])
				}
				// Odd senders use the other framing than the receiver's.
				framing := func(i int) int {
					switch {
					case i%2 == 0:
						return layout.Size
					case layout.Count() == 1:
						return chunk
					default:
						return 0
					}
				}
				send := func(i, st int, v tensor.Vector) {
					m := transport.Message{Kind: kind, Step: st, Vec: v}
					if err := transport.SendSharded(eps[i], "srv", m, framing(i)); err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range perm {
					e := schedule[p]
					send(e.sender, step+e.t, vecs[e.t][e.sender])
					send(e.sender, step+e.t, vecs[1-e.t][e.sender]) // duplicate, other payload: must lose
					send(e.sender, step-1, vecs[e.t][e.sender])     // stale
				}
				for ts := range want {
					qm.col.Advance(step + ts)
					senders, _, out, err := qm.reduce(kind, step+ts, q, nil, "", rule)
					if err != nil {
						t.Fatalf("%s: step %d: %v", name, step+ts, err)
					}
					// Per-shard quorums report no single sender order.
					for k, id := range senders {
						if id != fmt.Sprintf("w%d", want[ts][k]) {
							t.Fatalf("%s: step %d pinned %v, want senders %v", name, step+ts, senders, want[ts])
						}
					}
					if _, pinned := gar.StreamerFor(rule, dim); pinned && len(senders) != q {
						t.Fatalf("%s: step %d pinned %d senders, want %d", name, step+ts, len(senders), q)
					}
					for c := range out {
						if math.Float64bits(out[c]) != math.Float64bits(wantOut[ts][c]) {
							t.Fatalf("%s: step %d coordinate %d = %v, want %v", name, step+ts, c, out[c], wantOut[ts][c])
						}
					}
				}
				net.Close()
			}
		}
	}
}

// layoutServer runs one server for the single step t=steps−1 over a
// pre-filled mailbox: whatever extra the test sends, then every worker's
// gradient for that step, all framed at the shard size.
func layoutServer(t *testing.T, shardSize int, cfg ServerConfig, extra func(send func(from string, m transport.Message))) (tensor.Vector, error) {
	t.Helper()
	net := transport.NewChanNetwork(nil)
	t.Cleanup(func() { net.Close() })
	ep, _ := net.Register(cfg.ID)
	senders := map[string]transport.Endpoint{}
	send := func(from string, m transport.Message) {
		w := senders[from]
		if w == nil {
			var err error
			if w, err = net.Register(from); err != nil {
				t.Fatal(err)
			}
			senders[from] = w
		}
		if err := transport.SendSharded(w, cfg.ID, m, shardSize); err != nil {
			t.Fatal(err)
		}
	}
	if extra != nil {
		extra(send)
	}
	for j, w := range cfg.Workers {
		g := tensor.Vector{float64(j), 1, 2, 3}
		send(w, transport.Message{Kind: transport.KindGradient, Step: cfg.Steps - 1, Vec: g})
	}
	cfg.Init = make(tensor.Vector, 4)
	cfg.ParamRule, cfg.QuorumParams = gar.Median{}, 1
	cfg.LR = func(int) float64 { return 0.1 }
	cfg.Timeout, cfg.ShardSize = time.Second, shardSize
	return RunServer(ep, cfg)
}

// TestLayoutUniformity: at the one-shard layout and at a sharded one alike,
// a whole frame of the wrong dimension is counted malformed, the
// checkpoint's horizon is restored, enforced and written back, and an
// aggregation failure reads "aggregate <kind>: …".
func TestLayoutUniformity(t *testing.T) {
	for _, shardSize := range []int{0, 3} {
		t.Run(fmt.Sprintf("shard size %d", shardSize), func(t *testing.T) {
			h := metrics.NewNodeMetrics()
			dir := t.TempDir()
			cfg := ServerConfig{
				ID: "ps0", Workers: []string{"wrk0", "wrk1", "wrk2", "wrk3", "wrk4", "wrk5"},
				GradRule: gar.Median{}, QuorumGradients: 3, Steps: 10,
				Metrics:    h,
				Restore:    &Checkpoint{ID: "ps0", Step: 8, Theta: make(tensor.Vector, 4), Horizon: 5},
				Checkpoint: &CheckpointSpec{Dir: dir, Every: 1},
			}
			_, err := layoutServer(t, shardSize, cfg, func(send func(string, transport.Message)) {
				// Ahead of the quorum in the mailbox, from declared workers (an
				// undeclared sender would be refused before any of this is
				// looked at): a wrong-dimension sprayer, and frames just inside
				// and just outside the restored horizon of 5.
				send("wrk3", transport.Message{Kind: transport.KindGradient, Step: 9, Vec: tensor.Vector{1, 2}})
				send("wrk4", transport.Message{Kind: transport.KindGradient, Step: 9 + 5, Vec: make(tensor.Vector, 4)})
				send("wrk5", transport.Message{Kind: transport.KindGradient, Step: 9 + 6, Vec: make(tensor.Vector, 4)})
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := h.DroppedMalformed.Load(); got != 1 {
				t.Errorf("DroppedMalformed = %d, want 1 (the wrong-dimension whole frame)", got)
			}
			frames := uint64(transport.NewShardLayout(4, shardSize).Count())
			if got := h.DroppedFuture.Load(); got != frames {
				t.Errorf("DroppedFuture = %d, want %d: the restored horizon of 5 is not in force", got, frames)
			}
			ckpt, err := LoadCheckpoint(dir, "ps0")
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Step != 9 || ckpt.Horizon != 5 {
				t.Errorf("checkpoint at step %d with horizon %d, want step 9, horizon 5", ckpt.Step, ckpt.Horizon)
			}

			// Multi-Krum with f=1 needs five inputs; a quorum of three fails
			// in the rule, not in the collector.
			_, err = layoutServer(t, shardSize, ServerConfig{
				ID: "ps0", Workers: []string{"wrk0", "wrk1", "wrk2"},
				GradRule: gar.MultiKrum{F: 1}, QuorumGradients: 3, Steps: 1,
			}, nil)
			if err == nil || !strings.Contains(err.Error(), "step 0: aggregate gradient: ") {
				t.Errorf("aggregation failure reads %q, want \"… step 0: aggregate gradient: …\"", err)
			}
		})
	}
}
