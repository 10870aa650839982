package cluster

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// impostor is one raw connection of a rogue process: it hellos as id and
// sends every frame under that name — a well-formed, authenticated peer as
// far as the transport can tell. The socket stays open until the test ends.
func impostor(t *testing.T, addr, id string, frames ...transport.Message) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	stream, err := transport.AppendHello(nil, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range frames {
		m.From = id
		if stream, err = transport.AppendMessage(stream, &m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
}

// TestIllegalSendersNeverFillAQuorum: over real sockets, through RunServer,
// a quorum is filled by the senders the server's config names for that kind
// and by nobody else. Every row hands ps0 exactly the frames that would
// complete its step if any From could fill a slot (a poisoned θ and a nil
// error); the step must time out on the quorum instead, with each rogue
// frame counted.
func TestIllegalSendersNeverFillAQuorum(t *testing.T) {
	const poison = 1000.0
	type frame struct {
		from string
		kind transport.Kind
	}
	for _, tc := range []struct {
		name    string
		workers []string
		peers   []string
		qGrads  int
		qParams int
		frames  []frame
		illegal uint64 // frames the sender table must refuse
		stalled string // the quorum the step must time out on
	}{
		{
			// One rogue process, q̄ sockets, q̄ made-up names, no honest worker.
			name:    "sybils",
			workers: []string{"wrk0", "wrk1", "wrk2", "wrk3", "wrk4"}, qGrads: 5, qParams: 1,
			frames: []frame{
				{"sybil0", transport.KindGradient}, {"sybil1", transport.KindGradient},
				{"sybil2", transport.KindGradient}, {"sybil3", transport.KindGradient},
				{"sybil4", transport.KindGradient},
			},
			illegal: 5, stalled: "have 0/5 gradient messages",
		},
		{
			// Declared servers are not workers: their gradients stay out of phase 2.
			name:    "server posing as worker",
			workers: []string{"wrk0", "wrk1", "wrk2"}, peers: []string{"ps1", "ps2"}, qGrads: 3, qParams: 1,
			frames: []frame{
				{"wrk0", transport.KindGradient},
				{"ps1", transport.KindGradient}, {"ps2", transport.KindGradient},
			},
			illegal: 2, stalled: "have 1/3 gradient messages",
		},
		{
			// Declared workers are not peers: phase 2 fills honestly, phase 3
			// must not take the same workers' peer-params frames.
			name:    "worker posing as peer",
			workers: []string{"wrk0", "wrk1", "wrk2"}, peers: []string{"ps1", "ps2"}, qGrads: 3, qParams: 3,
			frames: []frame{
				{"wrk0", transport.KindGradient}, {"wrk1", transport.KindGradient}, {"wrk2", transport.KindGradient},
				{"wrk0", transport.KindPeerParams}, {"wrk1", transport.KindPeerParams},
			},
			illegal: 2, stalled: "have 0/2 peer-params messages",
		},
		{
			// A peer frame under the receiver's own name never sits beside
			// the self vector.
			name:    "own ID",
			workers: []string{"wrk0", "wrk1", "wrk2"}, peers: []string{"ps1", "ps2"}, qGrads: 3, qParams: 3,
			frames: []frame{
				{"wrk0", transport.KindGradient}, {"wrk1", transport.KindGradient}, {"wrk2", transport.KindGradient},
				{"ps1", transport.KindPeerParams}, {"ps0", transport.KindPeerParams},
			},
			illegal: 1, stalled: "have 1/2 peer-params messages",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, err := transport.ListenTCP("ps0", "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			h := metrics.NewNodeMetrics()
			node.SetMetrics(h)
			byName := map[string][]transport.Message{}
			for _, f := range tc.frames {
				byName[f.from] = append(byName[f.from], transport.Message{
					Kind: f.kind, Step: 0, Vec: tensor.Vector{poison, poison, poison, poison},
				})
			}
			for from, msgs := range byName {
				impostor(t, node.Addr(), from, msgs...)
			}
			theta, err := RunServer(node, ServerConfig{
				ID: "ps0", Workers: tc.workers, Peers: tc.peers,
				Init:     make(tensor.Vector, 4),
				GradRule: gar.Median{}, ParamRule: gar.Median{},
				QuorumGradients: tc.qGrads, QuorumParams: tc.qParams,
				Steps: 1, LR: func(int) float64 { return 1 },
				Timeout: 300 * time.Millisecond,
				Metrics: h,
			})
			if !errors.Is(err, transport.ErrQuorumTimeout) || !strings.Contains(err.Error(), tc.stalled) {
				t.Fatalf("RunServer = %v, %v; want a quorum timeout saying %q", theta, err, tc.stalled)
			}
			if got := h.DroppedRoster.Load(); got != tc.illegal {
				t.Errorf("DroppedRoster = %d, want %d", got, tc.illegal)
			}
		})
	}
}

// TestRogueBesideHonestDeploymentChangesNothing: the same rogue process next
// to a full honest deployment over real sockets. Its made-up identities
// pre-load every node's mailbox with frames for every kind and every step,
// so wherever any From may fill a slot they are each quorum's first arrivals;
// with the sender table they are refused, one count per frame, and every
// honest server's final θ is bit-identical to the run without the rogue.
//
// The deployment is schedule-independent on purpose (q = n, Median
// everywhere, as in TestMailboxPoliciesBitIdenticalWithoutOverflow), so the
// two runs can differ only by what the rogue got into an aggregation.
func TestRogueBesideHonestDeploymentChangesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up 6 TCP listeners, twice")
	}
	const (
		numServers, numWorkers = 3, 3
		steps, batch           = 12, 16
		sybils                 = 3
	)
	model, train, _ := testProblem(901)
	theta0 := model.ParamVector()
	poison := make(tensor.Vector, len(theta0))
	for i := range poison {
		poison[i] = 1e6
	}

	run := func(rogue bool) (finals []tensor.Vector, dropped uint64) {
		t.Helper()
		var serverIDs, workerIDs []string
		for i := 0; i < numServers; i++ {
			serverIDs = append(serverIDs, ServerID(i))
		}
		for j := 0; j < numWorkers; j++ {
			workerIDs = append(workerIDs, WorkerID(j))
		}
		ids := append(append([]string{}, serverIDs...), workerIDs...)
		reg := metrics.NewRegistry()
		nodes := make(map[string]*transport.TCPNode, len(ids))
		for _, id := range ids {
			n, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			n.SetMetrics(reg.Node(id))
			nodes[id] = n
		}
		for _, n := range nodes {
			for _, id := range ids {
				if id != n.ID() {
					if err := n.AddPeer(id, nodes[id].Addr()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if rogue {
			var frames []transport.Message
			for _, kind := range []transport.Kind{transport.KindParams, transport.KindGradient, transport.KindPeerParams} {
				for step := 0; step < steps; step++ {
					frames = append(frames, transport.Message{Kind: kind, Step: step, Vec: poison})
				}
			}
			for _, id := range ids {
				for s := 0; s < sybils; s++ {
					impostor(t, nodes[id].Addr(), fmt.Sprintf("sybil%d", s), frames...)
				}
			}
			// Nobody drains yet: wait until every mailbox holds the whole
			// pre-load, so the rogue is ahead of every honest frame.
			deadline := time.Now().Add(10 * time.Second)
			for _, id := range ids {
				for reg.Node(id).QueueDepth() < sybils*len(frames) {
					if time.Now().After(deadline) {
						t.Fatalf("%s holds %d of the rogue's %d frames", id, reg.Node(id).QueueDepth(), sybils*len(frames))
					}
					time.Sleep(time.Millisecond)
				}
			}
		}

		rng := tensor.NewRNG(31)
		finals = make([]tensor.Vector, numServers)
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
		for i := range serverIDs {
			peers := append(append([]string{}, serverIDs[:i]...), serverIDs[i+1:]...)
			scfg := ServerConfig{
				ID: serverIDs[i], Workers: workerIDs, Peers: peers,
				Init:     theta0,
				GradRule: gar.Median{}, ParamRule: gar.Median{},
				QuorumGradients: numWorkers, QuorumParams: numServers,
				Steps: steps, LR: func(int) float64 { return 0.2 },
				Timeout: time.Minute,
				Metrics: reg.Node(serverIDs[i]),
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				theta, err := RunServer(nodes[scfg.ID], scfg)
				if err != nil {
					fail(err)
					return
				}
				finals[i] = theta
			}(i)
		}
		for j := range workerIDs {
			wcfg := WorkerConfig{
				ID: workerIDs[j], Servers: serverIDs,
				Model:   model.Clone(),
				Sampler: dataset.NewSampler(train, rng.Split()),
				Batch:   batch, ParamRule: gar.Median{},
				QuorumParams: numServers,
				Steps:        steps,
				Timeout:      time.Minute,
				Metrics:      reg.Node(workerIDs[j]),
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunWorker(nodes[wcfg.ID], wcfg); err != nil {
					fail(err)
				}
			}()
		}
		wg.Wait()
		if len(errs) > 0 {
			t.Fatalf("deployment (rogue=%v) failed: %v", rogue, errs[0])
		}
		return finals, reg.Totals().DroppedRoster
	}

	clean, dropped := run(false)
	if dropped != 0 {
		t.Fatalf("DroppedRoster = %d on a fault-free run, want 0", dropped)
	}
	beside, dropped := run(true)
	if want := uint64((numServers + numWorkers) * sybils * 3 * steps); dropped != want {
		t.Errorf("DroppedRoster = %d, want %d (every rogue frame, once)", dropped, want)
	}
	for i := range clean {
		for k := range clean[i] {
			if math.Float64bits(beside[i][k]) != math.Float64bits(clean[i][k]) {
				t.Fatalf("%s: final[%d] = %v beside the rogue, %v without it", ServerID(i), k, beside[i][k], clean[i][k])
			}
		}
	}
}

// TestRejoinIgnoresNonPeers: a restarting server's discovery shares the
// loop's collector and with it the sender table, so the state it adopts is a
// median of its configured peers or nothing. Here the only peer-params
// traffic in flight comes from a declared worker and from a stranger, ahead
// of the checkpoint: the rejoin must time out and resume from the checkpoint
// alone instead of adopting their vector and their step.
func TestRejoinIgnoresNonPeers(t *testing.T) {
	net := transport.NewChanNetwork(nil)
	defer net.Close()
	ep, _ := net.Register("ps0")
	for _, from := range []string{"wrk0", "stranger"} {
		rogue, _ := net.Register(from)
		m := transport.Message{Kind: transport.KindPeerParams, Step: 40, Vec: tensor.Vector{1000, 1000}}
		if err := rogue.Send("ps0", m); err != nil {
			t.Fatal(err)
		}
	}
	h := metrics.NewNodeMetrics()
	ckpt := &Checkpoint{ID: "ps0", Step: 12, Theta: tensor.Vector{1, 2}}
	theta, err := RunServer(ep, ServerConfig{
		ID: "ps0", Workers: []string{"wrk0", "wrk1", "wrk2"}, Peers: []string{"ps1", "ps2"},
		Init:     make(tensor.Vector, 2),
		GradRule: gar.Median{}, ParamRule: gar.Median{},
		QuorumGradients: 3, QuorumParams: 3,
		Steps:   13, // the checkpoint's step was the last: whatever the rejoin decides is the result
		LR:      func(int) float64 { return 1 },
		Timeout: 100 * time.Millisecond,
		Restore: ckpt, Rejoin: true,
		Metrics: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if theta[0] != 1 || theta[1] != 2 {
		t.Fatalf("rejoined to θ = %v, want the checkpoint's [1 2]: non-peers steered the discovery", theta)
	}
	if got := h.DroppedRoster.Load(); got != 2 {
		t.Errorf("DroppedRoster = %d, want 2", got)
	}
}
