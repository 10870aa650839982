package guanyu_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/guanyu"
)

// quickOpts is the shared small deployment both runtimes execute: 6 servers
// (1 declared Byzantine), 6 workers (1 declared Byzantine, 1 actually
// Byzantine), blob workload.
func quickOpts(extra ...guanyu.Option) []guanyu.Option {
	opts := []guanyu.Option{
		guanyu.WithWorkload(guanyu.BlobWorkload(600, 7)),
		guanyu.WithServers(6, 1),
		guanyu.WithWorkers(6, 1),
		guanyu.WithRule("multi-krum"),
		guanyu.WithWorkerAttack(5, guanyu.SignFlip{Scale: 10}),
		guanyu.WithSteps(25),
		guanyu.WithBatch(8),
		guanyu.WithLR(guanyu.InverseTimeLR(0.2, 100)),
		guanyu.WithSeed(11),
	}
	return append(opts, extra...)
}

func TestNewRequiresWorkload(t *testing.T) {
	if _, err := guanyu.New(); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("missing workload: got %v", err)
	}
}

// TestNewValidatesTopology pins every refusal New makes to its reason. The
// paper's bounds are checked by the runtime config Run executes, so each
// topology row runs under both runtimes and must be refused for the same
// reason by each.
func TestNewValidatesTopology(t *testing.T) {
	base := guanyu.WithWorkload(guanyu.BlobWorkload(200, 1))
	delay := guanyu.WithDelay(func(string, string) time.Duration { return time.Millisecond })
	live := guanyu.WithRuntime(guanyu.Live)
	topology := []struct {
		name string
		opts []guanyu.Option
		want string
	}{
		{"servers below 3f+3", []guanyu.Option{base, guanyu.WithServers(5, 1)},
			"server population n=5 violates n ≥ 3f+3"},
		{"workers below 3f+3", []guanyu.Option{base, guanyu.WithWorkers(17, 5)},
			"worker population n=17 violates n ≥ 3f+3"},
		{"quorum above n-f", []guanyu.Option{base, guanyu.WithServers(6, 1), guanyu.WithQuorums(6, 0)},
			"server quorum q=6 violates q ≤ n−f"},
		{"attack out of range", []guanyu.Option{base, guanyu.WithWorkerAttack(99, guanyu.Zero{})},
			"worker attack index 99 outside population [0, 18)"},
		{"all servers byz", []guanyu.Option{base, guanyu.WithServers(6, 1),
			guanyu.WithAttackedServers(6, func(int) guanyu.Attack { return guanyu.Zero{} })},
			"every server is Byzantine"},
	}
	for _, c := range topology {
		for _, rt := range []guanyu.Runner{guanyu.Sim, guanyu.Live} {
			opts := append(append([]guanyu.Option{}, c.opts...), guanyu.WithRuntime(rt))
			if _, err := guanyu.New(opts...); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s under %s: got %v, want an error containing %q", c.name, rt, err, c.want)
			}
		}
	}
	cases := []struct {
		name string
		opts []guanyu.Option
		want string
	}{
		{"unknown rule", []guanyu.Option{base, guanyu.WithRule("no-such-rule")},
			`unknown rule "no-such-rule"`},
		{"unknown param rule", []guanyu.Option{base, guanyu.WithParamRule("no-such-param-rule")},
			`unknown rule "no-such-param-rule"`},
		{"zero steps", []guanyu.Option{base, guanyu.WithSteps(0)},
			"core: Steps and Batch must be positive"},
		{"vanilla live", []guanyu.Option{base, guanyu.WithVanilla(), live},
			"the vanilla baseline is simulation-only"},
		{"tcp without live", []guanyu.Option{base, guanyu.WithTCPTransport()},
			"WithTCPTransport applies to the Live runtime only"},
		{"delay on sim", []guanyu.Option{base, delay},
			"WithDelay applies to the Live runtime only"},
		{"suspicion on sim", []guanyu.Option{base, guanyu.WithSuspicion(guanyu.NewSuspicion())},
			"WithSuspicion applies to the Live runtime only"},
		{"delay over tcp", []guanyu.Option{base, live, guanyu.WithTCPTransport(), delay},
			"Delay is injected by the channel mesh; it has no effect over TCP"},
		// Bulyan needs n ≥ 4f+3 = 23 inputs at f̄=5, more than the paper
		// deployment's minimum gradient quorum q̄ = 13: New must reject it
		// instead of handing back a Deployment that fails its first step.
		{"rule illegal at quorum", []guanyu.Option{base, guanyu.WithRule("bulyan")},
			`rule "bulyan" needs ≥ 23 inputs with f̄=5, but the gradient quorum is 13`},
	}
	for _, c := range cases {
		if _, err := guanyu.New(c.opts...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestNewAppliesPaperDefaults(t *testing.T) {
	d, err := guanyu.New(guanyu.WithWorkload(guanyu.BlobWorkload(200, 1)))
	if err != nil {
		t.Fatalf("paper-scale defaults rejected: %v", err)
	}
	if d.Runtime() != guanyu.Sim {
		t.Fatalf("default runtime = %v, want Sim", d.Runtime())
	}
}

// TestSimAndLiveRunTheSameBuilder is the façade's core promise: one
// deployment description, two runtimes.
func TestSimAndLiveRunTheSameBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full deployments")
	}
	for _, rt := range []guanyu.Runner{guanyu.Sim, guanyu.Live} {
		d, err := guanyu.New(quickOpts(guanyu.WithRuntime(rt), guanyu.WithTimeout(2*time.Minute))...)
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		res, err := d.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		if res.Runtime != rt.String() {
			t.Errorf("%s: result runtime %q", rt, res.Runtime)
		}
		if len(res.Final) == 0 || !guanyu.IsFinite(res.Final) {
			t.Errorf("%s: bad final vector (len %d)", rt, len(res.Final))
		}
		if res.FinalAccuracy < 0.5 {
			t.Errorf("%s: final accuracy %.3f, want ≥ 0.5 despite 1 Byzantine worker",
				rt, res.FinalAccuracy)
		}
		if rt == guanyu.Sim && (res.Curve == nil || len(res.Curve.Points) == 0) {
			t.Errorf("sim: no convergence curve")
		}
		if rt == guanyu.Live && res.WallTime <= 0 {
			t.Errorf("live: no wall time recorded")
		}
	}
}

func TestSimIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	run := func() *guanyu.Result {
		d, err := guanyu.New(quickOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Final) != len(b.Final) {
		t.Fatalf("dimension mismatch: %d vs %d", len(a.Final), len(b.Final))
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			t.Fatalf("coordinate %d differs: %v vs %v", i, a.Final[i], b.Final[i])
		}
	}
}

func TestDeploymentIsReusable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	d, err := guanyu.New(quickOpts(guanyu.WithSteps(10))...)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAccuracy != r2.FinalAccuracy {
		t.Fatalf("re-running a deployment diverged: %v vs %v", r1.FinalAccuracy, r2.FinalAccuracy)
	}
}

// TestOmniscientAttackRerunIsFresh: a Deployment keeps its attack instances
// from one Run to the next, so an omniscient attack must craft each run from
// that run's honest vectors only — not from the last view of the run before.
func TestOmniscientAttackRerunIsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight simulations")
	}
	for _, name := range []string{"alie", "ipm", "mimic", "antikrum"} {
		t.Run(name, func(t *testing.T) {
			mk, err := guanyu.AttackByName(name, 9)
			if err != nil {
				t.Fatal(err)
			}
			d, err := guanyu.New(
				guanyu.WithWorkload(guanyu.BlobWorkload(600, 7)),
				guanyu.WithServers(6, 1),
				guanyu.WithWorkers(18, 5),
				guanyu.WithAttackedWorkers(5, mk),
				guanyu.WithSteps(6),
				guanyu.WithBatch(8),
				guanyu.WithLR(guanyu.InverseTimeLR(0.2, 100)),
				guanyu.WithSeed(9),
			)
			if err != nil {
				t.Fatal(err)
			}
			var finals [2][]float64
			for k := range finals {
				res, err := d.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				finals[k] = res.Final
			}
			for i := range finals[0] {
				if math.Float64bits(finals[0][i]) != math.Float64bits(finals[1][i]) {
					t.Fatalf("coordinate %d: first run %v, second run %v", i, finals[0][i], finals[1][i])
				}
			}
		})
	}
}

// TestOneOmniscientInstanceAtFiveWorkers: one ALIE instance armed at five
// workers is one colluding adversary. The simulator's Result equals that of
// five per-index instances, and a channel-mesh live run of it completes.
func TestOneOmniscientInstanceAtFiveWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations and a live run")
	}
	opts := func(attacks ...guanyu.Option) []guanyu.Option {
		return append([]guanyu.Option{
			guanyu.WithWorkload(guanyu.BlobWorkload(600, 7)),
			guanyu.WithServers(6, 1),
			guanyu.WithWorkers(18, 5),
			guanyu.WithSteps(6),
			guanyu.WithBatch(8),
			guanyu.WithSeed(9),
			guanyu.WithTimeout(time.Minute),
		}, attacks...)
	}
	shared := &guanyu.ALIE{}
	var one []guanyu.Option
	for j := range 5 {
		one = append(one, guanyu.WithWorkerAttack(j, shared))
	}
	perIndex := guanyu.WithAttackedWorkers(5, func(int) guanyu.Attack { return &guanyu.ALIE{} })

	var results [2]*guanyu.Result
	for k, attacks := range [][]guanyu.Option{one, {perIndex}} {
		d, err := guanyu.New(opts(attacks...)...)
		if err != nil {
			t.Fatal(err)
		}
		if results[k], err = d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("one shared instance: final %v; five instances: final %v", results[0].Final, results[1].Final)
	}

	d, err := guanyu.New(opts(append(one, guanyu.WithRuntime(guanyu.Live))...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatalf("live run with one instance at five workers: %v", err)
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rt := range []guanyu.Runner{guanyu.Sim, guanyu.Live} {
		d, err := guanyu.New(quickOpts(guanyu.WithRuntime(rt), guanyu.WithTimeout(time.Minute))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(ctx); err == nil {
			t.Errorf("%s: cancelled run returned nil error", rt)
		}
	}
}

func TestVanillaBaselineThroughBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	d, err := guanyu.New(
		guanyu.WithWorkload(guanyu.BlobWorkload(600, 3)),
		guanyu.WithVanilla(),
		guanyu.WithOptimizedRuntime(),
		guanyu.WithWorkers(6, 0),
		guanyu.WithSteps(20),
		guanyu.WithBatch(8),
		guanyu.WithLR(guanyu.InverseTimeLR(0.2, 100)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve == nil || !strings.Contains(res.Curve.Name, "vanilla") {
		t.Fatalf("vanilla curve name: %+v", res.Curve)
	}
}

// TestLiveTCPThroughBuilder runs the same builder deployment over real
// loopback sockets.
func TestLiveTCPThroughBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 12 TCP nodes")
	}
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithTCPTransport(),
		guanyu.WithSteps(8),
		guanyu.WithTimeout(2*time.Minute),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) == 0 {
		t.Fatal("no honest server results")
	}
	if !guanyu.IsFinite(res.Final) {
		t.Fatal("non-finite final parameters")
	}
}

// paperShape is the paper's deployment — 6 servers (f=1), 18 workers (f̄=5),
// two of them running ALIE — at a few steps of the blob workload.
func paperShape(steps int, extra ...guanyu.Option) []guanyu.Option {
	opts := []guanyu.Option{
		guanyu.WithWorkload(guanyu.BlobWorkload(600, 7)),
		guanyu.WithServers(6, 1),
		guanyu.WithWorkers(18, 5),
		guanyu.WithAttackedWorkers(2, func(int) guanyu.Attack { return &guanyu.ALIE{} }),
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithSteps(steps),
		guanyu.WithBatch(8),
		guanyu.WithSeed(11),
		guanyu.WithTimeout(20 * time.Second),
	}
	return append(opts, extra...)
}

// TestLiveCompressionWithByzantineWorkers: on the in-process runtime a
// Byzantine node runs the honest receive loop, so it must be able to expand
// the compressed frames its honest peers send it. It used to get no codec
// at all, and died at step 0 one full quorum timeout later.
func TestLiveCompressionWithByzantineWorkers(t *testing.T) {
	d, err := guanyu.New(paperShape(3, guanyu.WithCompression("float32"))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) != 6 || !guanyu.IsFinite(res.Final) {
		t.Fatalf("%d honest finals, finite=%v", len(res.ServerParams), guanyu.IsFinite(res.Final))
	}
	if res.DroppedMalformed != 0 || res.DroppedUnnegotiated != 0 {
		t.Fatalf("codec drops on a fault-free run: malformed=%d unnegotiated=%d",
			res.DroppedMalformed, res.DroppedUnnegotiated)
	}
}

// TestLiveTCPOneStepReturnsPromptly: a node loop that finishes must leave
// its listener up until every loop has returned. With one step, the server
// outside a worker's quorum makes its first-ever dial to workers that have
// already finished; against closed listeners each of those dials sat out
// the cold-start back-off, serially — a 1-step run took over a minute.
func TestLiveTCPOneStepReturnsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 24 TCP nodes")
	}
	d, err := guanyu.New(paperShape(1, guanyu.WithTCPTransport())...)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("1-step TCP run took %s, want < 5s", took)
	}
}

// TestLiveTCPCancellationMidRun cancels a TCP deployment mid-run: the
// watcher and the deferred cleanup then race to close the same sockets,
// which must be safe, and the run must surface the context's error.
func TestLiveTCPCancellationMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 12 TCP nodes")
	}
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithTCPTransport(),
		guanyu.WithSteps(500),
		guanyu.WithTimeout(30*time.Second),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("cancelled TCP run returned nil error")
	}
}

// TestSuspicionSurfacesByzantineWorker exercises the accountability path
// through the façade.
func TestSuspicionSurfacesByzantineWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live deployment")
	}
	susp := guanyu.NewSuspicion()
	lat := guanyu.NewLatencyModel(200e-6, 1.0, 0, 13)
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithWorkers(9, 2),
		guanyu.WithWorkerAttack(7, guanyu.ScaledNorm{Factor: 1e5}),
		guanyu.WithSuspicion(susp),
		guanyu.WithDelay(lat.DelayFunc(0, 1)),
		guanyu.WithTimeout(2*time.Minute),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ranking := susp.Ranking()
	if len(ranking) == 0 {
		t.Fatal("no suspicion observations")
	}
	// Workers 5 (from quickOpts) and 7 are the actually Byzantine ones.
	if got := ranking[0].Sender; got != guanyu.WorkerID(7) && got != guanyu.WorkerID(5) {
		t.Logf("ranking: %+v", ranking)
		t.Errorf("top suspect = %s, want a Byzantine worker (wrk5 or wrk7)", got)
	}
}
