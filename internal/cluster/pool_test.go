package cluster

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

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
		qm := newQuorum(recv, dim, size, time.Second, metrics.NewNodeMetrics(), nil, rule)
		inputs := make([]tensor.Vector, n)
		ids := make([]string, n)
		for i := range inputs {
			inputs[i] = rng.NormVec(make(tensor.Vector, dim), 0, 1)
			if i < 2 {
				tensor.ScaleInPlace(inputs[i], 40) // two outliers for the rule to exclude
			}
			ids[i] = fmt.Sprintf("w%d", i)
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
