package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/guanyu"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The paper's deployment shape (§5): 6 servers of which 1 may be Byzantine,
// 18 workers of which 5 may be, minimum quorums 2f+3.
const (
	numServers, fServers = guanyu.PaperServers, guanyu.PaperByzServers
	numWorkers, fWorkers = guanyu.PaperWorkers, guanyu.PaperByzWorkers
	quorumParams         = 2*fServers + 3
	quorumGrads          = 2*fWorkers + 3

	examples    = 1200
	liveTimeout = 20 * time.Second
)

// spec describes one workload. A run is a chain of rounds: each round is one
// Deployment.Run of steps steps whose initial model is the previous round's
// Result.Final, so a run trains one model while every round pays mesh
// bring-up and teardown like a user's run does. Rounds are short (1–4 s) so
// that a run has many: steps_per_s is the rate of the fastest tenth of them
// (see fastShare), the other per-step figures are medians over rounds, and
// accuracy is read after exactly minRounds rounds, a fixed step count
// whatever the machine's speed.
type spec struct {
	name, why string

	sim         bool // guanyu.Sim instead of Live over loopback TCP
	wide        bool // MLP 192-1024-10 (d = 207,882) instead of TinyConvNet (d = 2,726)
	batch       int
	steps       int // per round
	minRounds   int
	shard       int    // WithShardSize; 0 = whole-vector frames
	mailbox     string // WithMailboxSpec; "" = unbounded
	compression string // WithCompression; "" = none
	byzWorkers  int    // workers 0..n-1 run ALIE
	byzServers  int    // servers 0..n-1 equivocate
	// accuracyFloor fails the run when the accuracy after minRounds rounds
	// is below it: 0.15 under the median observed at the seed commit, never
	// under 0.30 (chance is 0.10).
	accuracyFloor float64
}

var workloads = []spec{
	{
		name:  "small_honest_tcp",
		why:   "compute-bound: d=2,726 over loopback TCP, nn.BatchGradient dominates CPU; a kernel or scheduling gain shows here, a wire or GAR gain must not",
		batch: 16, steps: 50, minRounds: 12, accuracyFloor: 0.70,
	},
	{
		name: "wide_honest_tcp",
		why:  "wire- and aggregation-bound: d=207,882 (1.66 MB frames), whole-vector Collector path; codec, socket, allocation and GAR work shows here, nn work must not",
		wide: true, batch: 8, steps: 4, minRounds: 6, accuracyFloor: 0.30,
	},
	{
		name: "wide_byz_stream_tcp",
		why:  "same layers used differently: 13-shard ShardCollector + streaming Multi-Krum, couriers + bounded mailboxes, float32 codec, 5 ALIE workers in the quorum",
		wide: true, batch: 8, steps: 4, minRounds: 6, shard: 16384,
		mailbox: "drop-oldest:cap=128", compression: "float32", byzWorkers: fWorkers, accuracyFloor: 0.30,
	},
	{
		name: "sim_byz",
		why:  "no transport at all: deterministic simulator with 5 ALIE workers and 1 equivocating server; wire optimisations must not move it, GAR numerics must keep its exact counts",
		sim:  true, batch: 16, steps: 50, minRounds: 16, byzWorkers: fWorkers, byzServers: fServers, accuracyFloor: 0.30,
	},
}

// quick shrinks a workload to one 20-step round for tests; quick results are
// never comparable with full ones and skip the accuracy floor.
func (s spec) quick() spec {
	s.steps, s.minRounds, s.accuracyFloor = 20, 1, 0
	if s.wide {
		s.steps = 2
	}
	return s
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// newWorkload makes the workload's inputs from the seed: the SynthImg-10
// data and a freshly initialised model.
func (s spec) newWorkload(seed uint64) guanyu.Workload {
	w := guanyu.ImageWorkload(examples, seed)
	if s.wide {
		w.Model = nn.NewMLP(tensor.NewRNG(seed+2), 192, 1024, 10)
	}
	return w
}

// attacks builds the Byzantine behaviours of one round.
func (s spec) attacks(seed uint64) (workers, servers func(int) guanyu.Attack, err error) {
	if workers, err = guanyu.AttackByName("alie", seed); err != nil {
		return nil, nil, err
	}
	servers, err = guanyu.AttackByName("equivocate", seed)
	return workers, servers, err
}

// schedule is the runtime's default learning-rate schedule continued across
// the chain: round r starts where round r-1 stopped, so a chain of rounds
// anneals like one long run instead of jumping back to η₀ at every round.
func (s spec) schedule(round int) guanyu.Schedule {
	halfLife := 200.0 // Live default
	if s.sim {
		halfLife = 300 // Sim default
	}
	base, offset := guanyu.InverseTimeLR(0.05, halfLife), round*s.steps
	return func(step int) float64 { return base(offset + step) }
}

// deployment builds round number round through the façade — the untraced
// path a user runs.
func (s spec) deployment(w guanyu.Workload, seed uint64, round int) (*guanyu.Deployment, error) {
	opts := []guanyu.Option{
		guanyu.WithWorkload(w),
		guanyu.WithServers(numServers, fServers),
		guanyu.WithWorkers(numWorkers, fWorkers),
		guanyu.WithQuorums(quorumParams, quorumGrads),
		guanyu.WithRule("multi-krum"),
		guanyu.WithParamRule("coordinate-median"),
		guanyu.WithBatch(s.batch),
		guanyu.WithSteps(s.steps),
		guanyu.WithLR(s.schedule(round)),
		guanyu.WithSeed(seed),
	}
	if !s.sim {
		opts = append(opts, guanyu.WithRuntime(guanyu.Live), guanyu.WithTCPTransport(), guanyu.WithTimeout(liveTimeout))
	}
	if s.shard > 0 {
		opts = append(opts, guanyu.WithShardSize(s.shard))
	}
	if s.mailbox != "" {
		opts = append(opts, guanyu.WithMailboxSpec(s.mailbox))
	}
	if s.compression != "" {
		opts = append(opts, guanyu.WithCompression(s.compression))
	}
	alie, equivocate, err := s.attacks(seed)
	if err != nil {
		return nil, err
	}
	if s.byzWorkers > 0 {
		opts = append(opts, guanyu.WithAttackedWorkers(s.byzWorkers, alie))
	}
	if s.byzServers > 0 {
		opts = append(opts, guanyu.WithAttackedServers(s.byzServers, equivocate))
	}
	return guanyu.New(opts...)
}

// roundResult is what one round leaves behind.
type roundResult struct {
	measurement
	final        []float64
	serverParams map[int][]float64 // live only
	curve        *guanyu.Series    // sim only
	accuracy     float64

	mesh, teardown time.Duration // traced live only
}

// runner executes round number round, seeded with seed; the untraced and
// traced paths differ only here.
type runner func(ctx context.Context, s spec, w guanyu.Workload, seed uint64, round int) (*roundResult, error)

// runFacade is the untraced runner.
func runFacade(ctx context.Context, s spec, w guanyu.Workload, seed uint64, round int) (*roundResult, error) {
	d, err := s.deployment(w, seed, round)
	if err != nil {
		return nil, err
	}
	var out *roundResult
	m, err := measure(func() error {
		res, err := d.Run(ctx)
		if err != nil {
			return err
		}
		out = &roundResult{final: res.Final, serverParams: res.ServerParams, curve: res.Curve, accuracy: res.FinalAccuracy}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.measurement = m
	return out, nil
}

// measurement is the process-level cost of one call.
type measurement struct {
	wall, cpu, gcPause time.Duration
	allocMB            float64
	gcCount            uint32
}

// measure runs f and reports its wall time, the process CPU it burned (user +
// system, every thread) and its allocation and GC deltas.
func measure(f func() error) (measurement, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuTime(), time.Now()
	err := f()
	m := measurement{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m.gcCount = after.NumGC - before.NumGC
	m.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return m, err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user + system CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// checkRound applies the per-round output checks: a finite final model and a
// finite spread between the honest servers. It returns that spread (the
// largest pairwise L∞ distance; 0 for the simulator, which reports one
// model).
func checkRound(r *roundResult) (spread float64, err error) {
	if len(r.final) == 0 || !tensor.IsFinite(r.final) {
		return 0, fmt.Errorf("final model is empty or not finite")
	}
	ids := make([]int, 0, len(r.serverParams))
	for i := range r.serverParams {
		ids = append(ids, i)
	}
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			pa, pb := r.serverParams[ids[a]], r.serverParams[ids[b]]
			for k := range pa {
				spread = math.Max(spread, math.Abs(pa[k]-pb[k]))
			}
		}
	}
	if math.IsNaN(spread) || math.IsInf(spread, 0) {
		return spread, fmt.Errorf("honest servers' spread is not finite")
	}
	return spread, nil
}
