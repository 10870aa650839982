package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
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

// tally counts the d-vectors a node's endpoint sent and the ones its loop
// read.
type tally struct {
	transport.Endpoint
	dim        int
	sent, read *atomic.Int64
}

func (e tally) Send(to string, m transport.Message) error {
	err := e.Endpoint.Send(to, m)
	if err == nil && len(m.Vec) == e.dim {
		e.sent.Add(1)
	}
	return err
}

func (e tally) Recv(timeout time.Duration) (transport.Message, bool) {
	m, ok := e.Endpoint.Recv(timeout)
	if ok && len(m.Vec) == e.dim {
		e.read.Add(1)
	}
	return m, ok
}

// TestSecondLiveRunReusesUnreadFrames: a run's unread tail — the frames
// beyond each quorum of its last step, which no loop receives — goes back
// to the free list when the endpoints close, so a second run of the same
// deployment finds those vectors there instead of allocating them again.
// A 3+3 mesh with quorums of 2 leaves such a tail, at the benchmark's wide
// dimension, on one processor and without garbage collection, as in
// TestSteadyStateStepAllocatesNoVector. Beyond the θ each server clones
// from Init, the second run must allocate fewer than half as many
// d-vectors as the first run left unread.
func TestSecondLiveRunReusesUnreadFrames(t *testing.T) {
	if putPoisons() {
		t.Skip("the race detector's sync.Pool drops a quarter of all Puts")
	}
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}()
	const steps, quorum = 3, 2
	model := nn.NewMLP(tensor.NewRNG(3), 192, 1024, 10)
	dim := model.ParamCount()
	init := tensor.NewRNG(4).NormVec(make(tensor.Vector, dim), 0, 0.01)
	serverIDs, workerIDs := []string{"ps0", "ps1", "ps2"}, []string{"wrk0", "wrk1", "wrk2"}
	data := &dataset.Dataset{NumClasses: 10, FeatureDim: 192}
	rng := tensor.NewRNG(5)
	for i := 0; i < 8; i++ {
		data.X = append(data.X, rng.NormVec(make([]float64, 192), 0, 1))
		data.Labels = append(data.Labels, i%10)
	}
	models := []*nn.Sequential{model, model.Clone(), model.Clone()}

	// run executes the deployment once and returns how many d-vectors its
	// loops left unread.
	run := func() int64 {
		var sent, read atomic.Int64
		network := transport.NewChanNetwork(nil)
		eps := make(map[string]transport.Endpoint)
		for _, id := range append(append([]string(nil), serverIDs...), workerIDs...) {
			ep, err := network.Register(id)
			if err != nil {
				t.Fatal(err)
			}
			eps[id] = tally{Endpoint: ep, dim: dim, sent: &sent, read: &read}
		}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			errs []error
		)
		fail := func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
		for i, id := range serverIDs {
			peers := append(append([]string(nil), serverIDs[:i]...), serverIDs[i+1:]...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := RunServer(eps[id], ServerConfig{
					ID: id, Workers: workerIDs, Peers: peers, Init: init,
					GradRule: gar.Median{}, ParamRule: gar.Median{},
					QuorumGradients: quorum, QuorumParams: quorum,
					Steps: steps, LR: func(int) float64 { return 0.01 }, Timeout: 10 * time.Second,
				}); err != nil {
					fail(err)
				}
			}()
		}
		for j, id := range workerIDs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunWorker(eps[id], WorkerConfig{
					ID: id, Servers: serverIDs, Model: models[j],
					Sampler: dataset.NewSampler(data, tensor.NewRNG(uint64(6+j))),
					Batch:   2, ParamRule: gar.Median{}, QuorumParams: quorum,
					Steps: steps, Timeout: 10 * time.Second,
				}); err != nil {
					fail(err)
				}
			}()
		}
		wg.Wait()
		network.Close()
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		return sent.Load() - read.Load()
	}

	unread := run()
	if unread < int64(len(workerIDs)) {
		t.Fatalf("the first run left %d frames unread; every worker's last quorum leaves at least one", unread)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	vectors := float64(after.TotalAlloc-before.TotalAlloc)/float64(8*dim) - float64(len(serverIDs))
	if vectors >= float64(unread)/2 {
		t.Errorf("the second run allocated %.1f d-vectors besides the servers' θ clones; the first run left %d unread, which should have come back",
			vectors, unread)
	}
	t.Logf("first run left %d frames unread; the second allocated %.2f d-vectors besides the θ clones", unread, vectors)
}

// scripted is an endpoint whose Recv hands over queued messages as they
// are, vector included, and whose Send only borrows.
type scripted struct{ queue []transport.Message }

func (s *scripted) ID() string                           { return "wrk0" }
func (s *scripted) Send(string, transport.Message) error { return nil }
func (s *scripted) Close() error                         { return nil }
func (s *scripted) Recv(time.Duration) (transport.Message, bool) {
	if len(s.queue) == 0 {
		return transport.Message{}, false
	}
	m := s.queue[0]
	s.queue = s.queue[1:]
	return m, true
}

// TestNodeLoopReturnsWhatItLeftBuffered: a frame the collector buffered for
// a step the loop never reached goes back to the free list when the loop
// returns — its last Advance — instead of to the garbage collector.
func TestNodeLoopReturnsWhatItLeftBuffered(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}()
	model := nn.NewMLP(tensor.NewRNG(3), 7, 5, 3) // a dimension no other test uses
	dim := model.ParamCount()
	filled := func(x float64) tensor.Vector {
		v := make(tensor.Vector, dim)
		for i := range v {
			v[i] = x
		}
		return v
	}
	servers := []string{"ps0", "ps1", "ps2"}
	ahead := filled(1)
	ep := &scripted{queue: []transport.Message{{From: "ps0", Kind: transport.KindParams, Step: 1, Vec: ahead}}}
	for _, from := range servers {
		ep.queue = append(ep.queue, transport.Message{From: from, Kind: transport.KindParams, Step: 0, Vec: filled(0.5)})
	}
	data := &dataset.Dataset{NumClasses: 3, FeatureDim: 7}
	for i := 0; i < 4; i++ {
		data.X = append(data.X, filled(float64(i))[:7])
		data.Labels = append(data.Labels, i%3)
	}
	if err := RunWorker(ep, WorkerConfig{
		ID: "wrk0", Servers: servers, Model: model, Sampler: dataset.NewSampler(data, tensor.NewRNG(4)),
		Batch: 2, ParamRule: gar.Median{}, QuorumParams: len(servers), Steps: 1, Timeout: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if putPoisons() {
		if !math.IsNaN(ahead[0]) {
			t.Fatal("the frame buffered for step 1 was not handed to the free list when the loop returned")
		}
		return
	}
	// The free list holds the step-0 frames and aggregates too: look
	// through as many vectors as the run can have put back.
	for range 4 * len(servers) {
		if v := tensor.Get(dim); &v[0] == &ahead[0] {
			return
		}
	}
	t.Fatal("the frame buffered for step 1 was not handed to the free list when the loop returned")
}

// TestSecondLiveRunReusesCraftedVectors: the colluders' crafted vectors stay
// in the adversary's view until the launcher closes it at the end of the
// run, which hands them back to the free list, as the colluders' fallback
// vectors go back once sent, so a run of a deployment that ran before crafts
// only into vectors the free list already holds. Two workers armed with one
// ALIE in a 3+4 channel mesh, on one processor and without garbage
// collection, as in TestSecondLiveRunReusesUnreadFrames: the allocation
// profile, every allocation sampled, must show no d-vector allocated under
// the attack package during the second run, and every vector crafted in a
// run must be back in the free list when the run returns.
func TestSecondLiveRunReusesCraftedVectors(t *testing.T) {
	if putPoisons() {
		t.Skip("the race detector's sync.Pool drops a quarter of all Puts")
	}
	procs, gc, rate := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1), runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		runtime.MemProfileRate = rate
	}()
	_, train, _ := testProblem(808)
	model := nn.NewMLP(tensor.NewRNG(809), 2, 512, 3) // a dimension no other test uses
	dim := model.ParamCount()
	colluders := &craftRecorder{ALIE: attack.ALIE{Z: 1}}
	cfg := LiveConfig{
		Model: model, Train: train,
		NumServers: 3, NumWorkers: 4, FWorkers: 1,
		QuorumServers: 2, QuorumWorkers: 3,
		WorkerAttacks: map[int]attack.Attack{0: colluders, 1: colluders},
		Rule:          gar.Median{},
		Steps:         4, Batch: 2,
		Timeout:        10 * time.Second,
		Seed:           810,
		SkipValidation: true, // 3+4 with two attacked workers, below n ≥ 3f+3
	}
	// fresh is how many d-vectors the allocation profile has recorded under
	// the attack package so far; runtime.GC publishes the profile.
	fresh := func() int64 {
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, n+64)
		n, ok := runtime.MemProfile(recs, true)
		if !ok {
			t.Fatal("the allocation profile outgrew its buffer")
		}
		var total int64
		for _, r := range recs[:n] {
			if r.AllocObjects == 0 || r.AllocBytes/r.AllocObjects < int64(8*dim) {
				continue
			}
			for frames := runtime.CallersFrames(r.Stack()); ; {
				f, more := frames.Next()
				if strings.HasPrefix(f.Function, "repro/internal/attack.") {
					total += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return total
	}
	before := fresh()
	attack.SignFlip{Scale: 1}.Corrupt(make(tensor.Vector, dim), 0, "ps0")
	if fresh()-before != 1 {
		t.Fatal("the allocation profile does not show a d-vector allocated under the attack package")
	}
	// run runs the deployment and checks that every vector crafted in it is
	// in the free list when it returns: it looks through as many vectors as
	// the run can have put back, then puts them back again.
	run := func(which string) {
		colluders.outs = nil
		if _, err := RunLiveContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if len(colluders.outs) == 0 {
			t.Fatalf("the %s run crafted nothing", which)
		}
		out := make(map[*float64]bool)
		for _, v := range colluders.outs {
			out[&v[0]] = true
		}
		var drawn []tensor.Vector
		for i := 0; i < 64*cfg.Steps*(cfg.NumServers+cfg.NumWorkers) && len(out) > 0; i++ {
			drawn = append(drawn, tensor.Get(dim))
			delete(out, &drawn[len(drawn)-1][0])
		}
		for _, v := range drawn {
			tensor.Put(v)
		}
		if len(out) > 0 {
			t.Errorf("%d of the %d vectors crafted in the %s run did not come back when it returned",
				len(out), len(colluders.outs), which)
		}
	}
	run("first")
	before = fresh()
	run("second")
	if got := fresh() - before; got != 0 {
		t.Errorf("the second run allocated %d d-vectors for crafting; the first run's should have come back", got)
	}
}

// craftRecorder is an ALIE that records every vector it crafts into.
type craftRecorder struct {
	attack.ALIE
	mu   sync.Mutex
	outs []tensor.Vector
}

func (a *craftRecorder) Craft(out tensor.Vector, v attack.ClusterView) {
	a.mu.Lock()
	a.outs = append(a.outs, out)
	a.mu.Unlock()
	a.ALIE.Craft(out, v)
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
	if putPoisons() {
		t.Skip("the race detector's sync.Pool drops a quarter of all Puts")
	}
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}()
	const dim = 1031 // a length no other test uses
	tos := []string{"ps0", "ps1", "ps2"}
	view := attack.NewSharedView(1, 2)
	ep := &sentVecs{}
	broadcast(ep, attack.ALIE{Z: 1}, view, transport.KindGradient, 0, tos, make(tensor.Vector, dim), 0)
	if len(ep.sent) != len(tos) || ep.sent[1] != ep.sent[0] || ep.sent[2] != ep.sent[0] {
		t.Fatal("the fallback broadcast did not send one vector to every receiver")
	}
	if &tensor.Get(dim)[0] != ep.sent[0] {
		t.Fatal("the fallback vector was not handed back once sent")
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
	view.Close()
}
