package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// putPoisons reports whether this build's tensor.Put overwrites what it is
// given (race builds do), by looking at a one-coordinate vector it owns.
func putPoisons() bool {
	probe := tensor.Vector{1}
	tensor.Put(probe)
	return probe[0] != probe[0]
}

// TestAggregateRecyclesInputsOnlyAfterTheirLastReader: the two rules that
// read their inputs after the last fold — streaming Multi-Krum averages the
// retained shards at Result, the one-shard adapter re-selects for the
// Suspicion report after Result — must produce the bits of Rule.Aggregate
// on untouched copies. With poison-on-Put (race builds) a Recycle that ran
// one statement too early turns the output, or the selection, to NaN.
func TestAggregateRecyclesInputsOnlyAfterTheirLastReader(t *testing.T) {
	const dim, n, q, size = 91, 9, 7, 13
	for _, rule := range []gar.Rule{gar.MultiKrum{F: 2}, gar.MDA{F: 2}} {
		rng := tensor.NewRNG(17)
		net := transport.NewChanNetwork(nil)
		recv, _ := net.Register("srv")
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("w%d", i)
		}
		qm := newQuorum(recv, dim, size, time.Second, metrics.NewNodeMetrics(),
			map[transport.Kind][]string{transport.KindGradient: ids}, rule)
		inputs := make([]tensor.Vector, n)
		for i := range inputs {
			inputs[i] = rng.NormVec(make(tensor.Vector, dim), 0, 1)
			if i < 2 {
				tensor.ScaleInPlace(inputs[i], 40) // two outliers for the rule to exclude
			}
			ep, _ := net.Register(ids[i])
			m := transport.Message{Kind: transport.KindGradient, Step: 0, Vec: inputs[i]}
			if err := transport.SendSharded(ep, "srv", m, size); err != nil {
				t.Fatal(err)
			}
		}
		want, err := rule.Aggregate(inputs[:q])
		if err != nil {
			t.Fatal(err)
		}
		wantKept, err := rule.(gar.SelectiveRule).SelectIndices(inputs[:q])
		if err != nil {
			t.Fatal(err)
		}

		sus := stats.NewSuspicion()
		got, err := qm.aggregate(transport.KindGradient, 0, q, nil, "", rule, sus)
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s at %d shards: coordinate %d = %v, want %v", rule.Name(), qm.col.Layout.Count(), c, got[c], want[c])
			}
		}
		kept := make(map[string]bool)
		for _, k := range wantKept {
			kept[ids[k]] = true
		}
		for _, id := range ids[:q] {
			if wantRate := map[bool]float64{true: 0, false: 1}[kept[id]]; sus.Rate(id) != wantRate {
				t.Fatalf("%s: suspicion of %s is %v, want %v (kept: %v)", rule.Name(), id, sus.Rate(id), wantRate, wantKept)
			}
		}
		net.Close()
	}
}

// stepClock wraps a node's endpoint and reads the process's cumulative
// allocation each time the node opens a new step (its first send of the
// given kind for that step).
type stepClock struct {
	transport.Endpoint
	kind   transport.Kind
	allocs []uint64 // allocs[t] = TotalAlloc when step t's first send left
}

func (c *stepClock) Send(to string, m transport.Message) error {
	if m.Kind == c.kind && m.Step == len(c.allocs) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.allocs = append(c.allocs, ms.TotalAlloc)
	}
	return c.Endpoint.Send(to, m)
}

// TestSteadyStateStepAllocatesNoVector is ROADMAP's "0 d-allocations above
// the transport": at the benchmark's wide dimension, once the first step has
// filled the free list, a whole server step and a whole worker step each
// allocate less than one d-vector in total — every frame, snapshot,
// aggregate and gradient comes from tensor.Get and goes back. The node runs
// alone over a pre-filled mailbox (it receives as many vectors as it sends,
// so its own Puts feed its own Gets), on one processor and without garbage
// collection, so that the free list is deterministic.
func TestSteadyStateStepAllocatesNoVector(t *testing.T) {
	if putPoisons() {
		t.Skip("the race detector's sync.Pool drops a quarter of all Puts")
	}
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}()
	const steps, servers, workers = 4, 3, 3
	model := nn.NewMLP(tensor.NewRNG(3), 192, 1024, 10)
	dim := model.ParamCount()
	if dim != 207882 {
		t.Fatalf("model has %d parameters, want the benchmark's 207,882", dim)
	}
	vec := tensor.NewRNG(4).NormVec(make(tensor.Vector, dim), 0, 0.01)
	serverIDs, workerIDs := []string{"ps0", "ps1", "ps2"}, []string{"wrk0", "wrk1", "wrk2"}

	// script registers every node, wraps the node under test in a stepClock
	// and has each of the given senders deliver one vector of the given kind
	// per step — all before the node starts.
	script := func(self string, clockKind transport.Kind, inbound map[transport.Kind][]string) (*stepClock, func()) {
		net := transport.NewChanNetwork(nil)
		eps := make(map[string]transport.Endpoint)
		for _, id := range append(append([]string(nil), serverIDs...), workerIDs...) {
			ep, err := net.Register(id)
			if err != nil {
				t.Fatal(err)
			}
			eps[id] = ep
		}
		for kind, senders := range inbound {
			for _, from := range senders {
				for step := 0; step < steps; step++ {
					if err := eps[from].Send(self, transport.Message{Kind: kind, Step: step, Vec: vec}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return &stepClock{Endpoint: eps[self], kind: clockKind}, func() { net.Close() }
	}
	check := func(role string, allocs []uint64) {
		t.Helper()
		if len(allocs) != steps {
			t.Fatalf("%s opened %d steps, want %d", role, len(allocs), steps)
		}
		for s := 1; s+1 < len(allocs); s++ { // step 0 is the warm-up
			if grew := allocs[s+1] - allocs[s]; grew >= uint64(8*dim) {
				t.Errorf("%s step %d allocated %d bytes, a d-vector (%d bytes) or more", role, s, grew, 8*dim)
			}
		}
	}

	clock, closeNet := script("ps0", transport.KindParams, map[transport.Kind][]string{
		transport.KindGradient:   workerIDs,
		transport.KindPeerParams: serverIDs[1:],
	})
	_, err := RunServer(clock, ServerConfig{
		ID: "ps0", Workers: workerIDs, Peers: serverIDs[1:], Init: vec,
		GradRule: gar.MultiKrum{F: 0}, ParamRule: gar.Median{},
		QuorumGradients: workers, QuorumParams: servers,
		Steps: steps, LR: func(int) float64 { return 0.01 }, Timeout: 10 * time.Second,
	})
	closeNet()
	if err != nil {
		t.Fatal(err)
	}
	check("server", clock.allocs)

	data := &dataset.Dataset{NumClasses: 10, FeatureDim: 192}
	rng := tensor.NewRNG(5)
	for i := 0; i < 8; i++ {
		data.X = append(data.X, rng.NormVec(make([]float64, 192), 0, 1))
		data.Labels = append(data.Labels, i%10)
	}
	clock, closeNet = script("wrk0", transport.KindGradient, map[transport.Kind][]string{
		transport.KindParams: serverIDs,
	})
	err = RunWorker(clock, WorkerConfig{
		ID: "wrk0", Servers: serverIDs, Model: model, Sampler: dataset.NewSampler(data, rng),
		Batch: 2, ParamRule: gar.Median{}, QuorumParams: servers,
		Steps: steps, Timeout: 10 * time.Second,
	})
	closeNet()
	if err != nil {
		t.Fatal(err)
	}
	check("worker", clock.allocs)
}

// sentVecs is an endpoint that records the backing array of every vector
// sent through it and delivers nothing; only Send is called on it.
type sentVecs struct {
	transport.Endpoint
	sent []*float64
}

func (s *sentVecs) Send(_ string, m transport.Message) error {
	s.sent = append(s.sent, &m.Vec[0])
	return nil
}

// TestColludersCraftOnceOrSendOneFallback: an omniscient Byzantine node's
// broadcast sends every receiver one vector. Before any honest vector of
// the step is published, that is the node's own fallback, handed back to
// the free list once sent; after, it is the one vector the colluders
// crafted for (kind, step), whichever colluder broadcasts.
func TestColludersCraftOnceOrSendOneFallback(t *testing.T) {
	const dim = 1031 // a length no other test uses
	tensor.Put(make(tensor.Vector, dim))
	base := tensor.Outstanding()[dim]
	moved := func() int64 { return tensor.Outstanding()[dim] - base }
	tos := []string{"ps0", "ps1", "ps2"}
	view := attack.NewSharedView(1, 2)
	ep := &sentVecs{}
	broadcast(ep, attack.ALIE{Z: 1}, view, transport.KindGradient, 0, tos, make(tensor.Vector, dim), 0)
	if len(ep.sent) != len(tos) || ep.sent[1] != ep.sent[0] || ep.sent[2] != ep.sent[0] {
		t.Fatal("the fallback broadcast did not send one vector to every receiver")
	}
	if moved() != 0 {
		t.Fatalf("the fallback vector left the ledger at %d; want it handed back once sent", moved())
	}

	view.Publish(0, tensor.NewRNG(1).NormVec(make(tensor.Vector, dim), 0, 1))
	ep.sent = nil
	for range 2 { // two colluders armed from one spec
		broadcast(ep, attack.ALIE{Z: 1}, view, transport.KindGradient, 0, tos, make(tensor.Vector, dim), 0)
	}
	crafted := view.Craft(attack.ALIE{Z: 1}, uint8(transport.KindGradient), 0)
	for _, v := range ep.sent {
		if v != &crafted[0] {
			t.Fatal("a colluder sent something other than the step's one crafted vector")
		}
	}
	if view.Close(); moved() != 0 {
		t.Fatalf("after Close the ledger stands at %d; want the published copy and the crafted vector handed back once", moved())
	}
}

// TestLiveRunsHandBackEveryVectorOnce runs small deployments down every
// path that hands a vector back — the unread tail left by quorums below the
// population, the node loops' last Advance in a run that fails, the sockets
// of a TCP mesh closing on unread frames, chunk frames through bounded
// mailboxes and courier leases, fault-injected copies, colluders' crafted
// and fallback vectors — and lets runLive's ledger check hold each run to
// exactly once.
func TestLiveRunsHandBackEveryVectorOnce(t *testing.T) {
	model, train, _ := testProblem(808)
	for _, row := range []struct {
		name string
		mut  func(*LiveConfig)
	}{
		{"unread tail", func(*LiveConfig) {}},
		{"over TCP", func(c *LiveConfig) { c.TCP = true }},
		{"sharded, bounded", func(c *LiveConfig) {
			c.ShardSize, c.Mailbox = 13, transport.MailboxConfig{Cap: 64, Policy: transport.DropOldest}
		}},
		{"faults", func(c *LiveConfig) {
			c.Faults = transport.NewFaultInjector(transport.FaultConfig{
				Seed: 9, Duplicate: 0.2, Reorder: 0.2, DelayRate: 0.2, DelaySpike: 0.001})
		}},
		{"colluders", func(c *LiveConfig) {
			c.NumWorkers, c.QuorumWorkers = 4, 3
			c.WorkerAttacks = map[int]attack.Attack{0: attack.ALIE{Z: 1}, 1: attack.ALIE{Z: 1}}
		}},
		{"a failed run", func(c *LiveConfig) { // each worker is left one buffered frame
			c.ServerAttacks, c.Timeout = map[int]attack.Attack{1: attack.Silent{}, 2: attack.Silent{}}, 50*time.Millisecond
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := LiveConfig{
				Model: model, Train: train,
				NumServers: 3, NumWorkers: 3,
				QuorumServers: 2, QuorumWorkers: 2,
				Rule: gar.Median{}, Steps: 4, Batch: 2,
				Timeout: 10 * time.Second, Seed: 810,
				SkipValidation: true, // quorums below the population leave an unread tail
			}
			row.mut(&cfg)
			if _, err := runLive(t, cfg); (err != nil) != (row.name == "a failed run") {
				t.Fatal(err)
			}
		})
	}
}

// runLive is how the tests of this package run a deployment: RunLiveContext
// with the tensor free list's ledger checked around it. First it makes the
// size classes of the lengths the deployment's collectors vouch for (the
// model dimension and its shard extents) — the ledger counts a vector only
// if it was taken once its class existed. After the run every one of those
// classes must stand where it stood before, less the vectors a run keeps by
// design, which are named here and nowhere else:
//
//   - the θ each server returns, which stays out: it is offset by the copy
//     of θ₀ the server made itself and handed to the free list at its first
//     contraction round, so it moves no count (nor when a server fails or
//     is killed with its θ in hand);
//   - the adversary's window: a SharedView step older than its 16 newest
//     goes to the garbage collector with the copy each honest node
//     published into it and at most one crafted vector per omniscient
//     attack and message kind, since a lagging colluder may still read it;
//   - over TCP, a vector that a read cut short by the teardown left
//     half-filled: at most one per link.
func runLive(t *testing.T, cfg LiveConfig) (*LiveResult, error) {
	t.Helper()
	var lens []int
	if cfg.Model != nil {
		dim := cfg.Model.ParamCount()
		layout := transport.NewShardLayout(dim, cfg.ShardSize)
		lens = []int{dim}
		for i := 0; i < layout.Count() && layout.Count() > 1; i++ {
			if lo, hi := layout.Bounds(i); !slices.Contains(lens, hi-lo) {
				lens = append(lens, hi-lo)
			}
		}
	}
	for _, n := range lens {
		tensor.Put(make(tensor.Vector, n))
	}
	before := tensor.Outstanding()
	res, err := RunLiveContext(context.Background(), cfg)
	after := tensor.Outstanding()

	var kept, crafts int64 // at the model dimension
	if evicted := int64(cfg.Steps - 16 - 1); evicted > 0 {
		views := []struct {
			n, kinds int
			attacks  map[int]attack.Attack
		}{{cfg.NumServers, 2, cfg.ServerAttacks}, {cfg.NumWorkers, 1, cfg.WorkerAttacks}}
		for _, v := range views {
			omniscient := map[attack.Attack]bool{}
			for _, a := range v.attacks {
				if _, ok := a.(attack.Omniscient); ok {
					omniscient[a] = true
				}
			}
			if len(omniscient) > 0 && err == nil {
				kept += evicted * int64(v.n-len(v.attacks))
				crafts += evicted * int64(v.kinds*len(omniscient))
			}
		}
	}
	var cut int64
	if cfg.TCP {
		nodes := int64(cfg.NumServers + cfg.NumWorkers)
		cut = nodes * (nodes - 1)
	}
	for _, n := range lens {
		lo, hi := int64(0), cut
		if n == lens[0] {
			lo, hi = kept, kept+crafts+cut
		}
		if got := after[n] - before[n]; got < lo || got > hi {
			t.Errorf("the run left %d vectors of length %d out of the free list, want %d to %d (err %v)", got, n, lo, hi, err)
		}
	}
	return res, err
}
