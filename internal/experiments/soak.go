package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/transport"
)

// The soak experiment is the ops-surface counterpart of the scale sweep:
// instead of growing the population, it holds one live deployment under
// continuous adversity — the "flaky" fault profile on every link, an
// equivocating Byzantine server, bounded drop-oldest mailboxes — for far
// more steps than any functional test, while a scraper goroutine reads the
// same live metrics registry a /metrics listener would and checks three
// invariants the exposition promises: every counter is monotonic across
// scrapes (no torn or regressing reads), the cluster keeps making quorum
// progress until every node reports done, and the sampled peak heap stays
// under the scale experiment's derived O(n·cap·frame) budget.

// Soak sizing. The smoke deployment is the acceptance shape: 12 nodes — 6
// parameter servers (the last one actually equivocating) and 6 workers —
// with full runs adding 6 more workers and an order of magnitude more
// steps. Quorums are declared with slack (f = 0 → q = 3 per role, the
// chaos test's discipline): a dropped frame is never retransmitted, so a
// zero-slack quorum would deadlock on the first lost link, and the soak
// injects losses for thousands of steps.
var (
	soakServers      = 6
	soakWorkers      = 12
	soakSmokeWorkers = 6
	soakQuorum       = 3
	soakSteps        = 2000
	soakSmokeSteps   = 150
	soakTimeout      = 2 * time.Minute
	soakScrapeEvery  = 50 * time.Millisecond
)

// SoakOptions selects a soak run's mode beyond its Scale.
type SoakOptions struct {
	// Smoke selects the CI sizing (fewer workers, far fewer steps).
	Smoke bool
	// MetricsAddr, when non-empty, serves /metrics + /healthz on this
	// address for the run's duration plus Linger afterwards.
	MetricsAddr string
	// Linger keeps the MetricsAddr listener up this long after the run, so
	// external scrapers can read the final counters.
	Linger time.Duration
	// Churn arms the kill/restart cycle: one honest server checkpoints,
	// is killed a quarter of the way into the run, and rejoins from its
	// newest checkpoint under the same ID — while the scraper keeps
	// checking counter monotonicity straight through the outage.
	Churn bool
}

// SoakResult is one soak run's measurements and verdicts.
type SoakResult struct {
	// Servers + Workers = Nodes, the deployment population.
	Servers, Workers, Nodes int
	// Steps is the number of learning steps every node completed.
	Steps int
	// Elapsed is the run's wall-clock time (excluding the linger window).
	Elapsed time.Duration
	// StepsPerSec is Steps over Elapsed.
	StepsPerSec float64
	// Scrapes is how many times the self-scraper snapshotted the live
	// registry during the run.
	Scrapes int
	// MonotonicViolations counts (node, counter) pairs observed to
	// decrease between consecutive scrapes — always 0 for a correct
	// atomic registry.
	MonotonicViolations int
	// AllDone reports that every node's handle reached MarkDone — the
	// liveness verdict.
	AllDone bool
	// Healthy is the registry's own post-run health check (no node
	// stalled).
	Healthy bool
	// The run's registry totals, as surfaced by the live runtime:
	// DroppedOverflow is mailbox-shed frames (inbound plus courier),
	// DroppedClosed after-shutdown arrivals, DroppedFuture and
	// DroppedMalformed the collectors' horizon and shape rejections.
	DroppedOverflow, DroppedClosed  uint64
	DroppedFuture, DroppedMalformed uint64
	// StepsTotal is guanyu_steps_total summed across nodes (= Nodes × Steps
	// when every node finished).
	StepsTotal uint64
	// FinalAccuracy is the final median model's test accuracy.
	FinalAccuracy float64
	// PeakHeapBytes is the sampled heap high-water mark during the run;
	// HeapBudgetBytes is the scale experiment's derived bound for this
	// population and mailbox.
	PeakHeapBytes, HeapBudgetBytes uint64
	// WithinBudget is PeakHeapBytes ≤ HeapBudgetBytes.
	WithinBudget bool
	// PeakRSSBytes is the process VmHWM after the run (0 where
	// /proc/self/status is unavailable).
	PeakRSSBytes uint64
	// ChurnRequested records that the run armed the kill/restart cycle;
	// ChurnKillStep is the step the victim was scheduled to die at.
	ChurnRequested bool
	ChurnKillStep  int
	// ChurnRestarted reports that the victim was actually killed and came
	// back through checkpoint + median rejoin (the live runtime's verdict).
	ChurnRestarted bool
}

// Pass is the overall soak verdict: monotone counters, full liveness,
// bounded memory — and, when churn was armed, an actual kill/restart.
func (r *SoakResult) Pass() bool {
	if r.ChurnRequested && !r.ChurnRestarted {
		return false
	}
	return r.MonotonicViolations == 0 && r.AllDone && r.Healthy && r.WithinBudget
}

// Format renders the soak report, ending in the greppable verdict lines CI
// keys on.
func (r *SoakResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Soak: %d nodes (%d servers incl. 1 equivocator, %d workers, quorum %d), %d steps, flaky faults, drop-oldest mailboxes cap=%d\n",
		r.Nodes, r.Servers, r.Workers, soakQuorum, r.Steps, transport.DefaultMailboxCap)
	fmt.Fprintf(&b, "elapsed: %.1fs  steps/sec: %.1f  final accuracy: %.3f\n",
		r.Elapsed.Seconds(), r.StepsPerSec, r.FinalAccuracy)
	fmt.Fprintf(&b, "registry scrapes: %d  monotonicity violations: %d\n",
		r.Scrapes, r.MonotonicViolations)
	fmt.Fprintf(&b, "dropped: overflow=%d closed=%d future=%d malformed=%d  steps_total=%d\n",
		r.DroppedOverflow, r.DroppedClosed, r.DroppedFuture, r.DroppedMalformed, r.StepsTotal)
	fmt.Fprintf(&b, "liveness: all nodes done: %s  health: %s\n",
		yesNo(r.AllDone), yesNo(r.Healthy))
	if r.ChurnRequested {
		fmt.Fprintf(&b, "churn: victim killed at step %d, restarted via checkpoint+rejoin: %s\n",
			r.ChurnKillStep, yesNo(r.ChurnRestarted))
	}
	fmt.Fprintf(&b, "peak heap %s, budget %s (RSS high-water %s)\n",
		formatBytes(int(r.PeakHeapBytes)), formatBytes(int(r.HeapBudgetBytes)),
		formatBytes(int(r.PeakRSSBytes)))
	fmt.Fprintf(&b, "peak heap within budget: %s\n", yesNo(r.WithinBudget))
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	fmt.Fprintf(&b, "soak verdict: %s\n", verdict)
	return b.String()
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// soakScraper polls a live registry the way an external Prometheus scraper
// would and verifies that every counter is monotonic between reads.
type soakScraper struct {
	reg        *metrics.Registry
	stop, done chan struct{}

	mu         sync.Mutex
	scrapes    int
	violations int
	prev       map[string][]uint64
}

func startSoakScraper(reg *metrics.Registry) *soakScraper {
	s := &soakScraper{reg: reg, stop: make(chan struct{}),
		done: make(chan struct{}), prev: make(map[string][]uint64)}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(soakScrapeEvery)
		defer tick.Stop()
		for {
			s.scrapeOnce()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *soakScraper) scrapeOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrapes++
	for _, snap := range s.reg.Snapshot() {
		cur := []uint64{snap.DroppedFuture, snap.DroppedMalformed,
			snap.ForgedDropped, snap.DroppedUnnegotiated, snap.DroppedOverflow,
			snap.CourierDropped, snap.DroppedClosed, snap.Steps}
		if prev, ok := s.prev[snap.ID]; ok {
			for i := range cur {
				if cur[i] < prev[i] {
					s.violations++
				}
			}
		}
		s.prev[snap.ID] = cur
	}
}

// Stop halts the scraper after one final scrape and returns (scrapes,
// monotonicity violations).
func (s *soakScraper) Stop() (int, int) {
	close(s.stop)
	<-s.done
	s.scrapeOnce()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrapes, s.violations
}

// Soak runs the long-haul live deployment under continuous fault injection
// with an equivocating server, self-scraping its metrics registry
// throughout. opts.Smoke selects the CI sizing. When opts.MetricsAddr is
// non-empty a /metrics + /healthz listener serves the same registry for the
// duration of the run and for opts.Linger afterwards, so external scrapers
// (CI's curl loop, a dashboard) can read the final counters before the
// process exits. opts.Churn additionally kills and restarts one honest
// server mid-run, turning the soak into a crash-recovery endurance check.
func Soak(s Scale, opts SoakOptions) (*SoakResult, error) {
	workers, steps := soakWorkers, soakSteps
	if opts.Smoke {
		workers, steps = soakSmokeWorkers, soakSmokeSteps
	}
	nodes := soakServers + workers
	w := core.BlobWorkload(s.Examples, s.Seed)
	dim := w.Model.ParamCount()
	mbox := DefaultScaleMailbox

	fc, err := transport.FaultByName("flaky", nil, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	reg := metrics.NewRegistry()
	if opts.MetricsAddr != "" {
		srv, err := metrics.Serve(opts.MetricsAddr, reg, metrics.DefaultStallAfter)
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		defer func() {
			// Hold the exposition up past the run so late scrapers see the
			// final counters, then tear it down.
			time.Sleep(opts.Linger)
			srv.Close()
		}()
	}

	cfg := cluster.LiveConfig{
		Model:      w.Model,
		Train:      w.Train,
		NumServers: soakServers, FServers: 0,
		NumWorkers: workers, FWorkers: 0,
		QuorumServers: soakQuorum, QuorumWorkers: soakQuorum,
		ServerAttacks: map[int]attack.Attack{
			soakServers - 1: attack.Equivocate{Std: 0.5, Seed: s.Seed},
		},
		// Median on both paths, as in the chaos test: legal at the slack
		// quorum of 3 (the Krum family would need 2f+3 inputs) and robust
		// against the equivocating server's per-receiver lies.
		Rule:      gar.Median{},
		ParamRule: gar.Median{},
		Steps:     steps,
		Batch:     s.Batch,
		Timeout:   soakTimeout,
		Seed:      s.Seed,
		Faults:    transport.NewFaultInjector(fc),
		Mailbox:   mbox,
		Metrics:   reg,
	}
	killAt := 0
	if opts.Churn {
		// Server 0 is honest (the equivocator is the last index); kill it a
		// quarter of the way in, checkpointing often enough that the newest
		// checkpoint is never more than a few steps stale at the kill.
		dir, err := os.MkdirTemp("", "guanyu-soak-ckpt-")
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		defer os.RemoveAll(dir)
		killAt = steps / 4
		cfg.Churn = &cluster.LiveChurn{
			Server:          0,
			KillAtStep:      killAt,
			CheckpointEvery: max(1, steps/20),
			Dir:             dir,
		}
	}

	scraper := startSoakScraper(reg)
	var live *cluster.LiveResult
	elapsed, peak, err := measureRun(func() error {
		r, err := cluster.RunLive(cfg)
		live = r
		return err
	})
	scrapes, violations := scraper.Stop()
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}

	res := &SoakResult{
		Servers: soakServers, Workers: workers, Nodes: nodes,
		Steps:   steps,
		Elapsed: elapsed, StepsPerSec: float64(steps) / elapsed.Seconds(),
		Scrapes: scrapes, MonotonicViolations: violations,
		DroppedOverflow:  live.Totals.DroppedOverflow + live.Totals.CourierDropped,
		DroppedClosed:    live.Totals.DroppedClosed,
		DroppedFuture:    live.Totals.DroppedFuture,
		DroppedMalformed: live.Totals.DroppedMalformed,
		StepsTotal:       live.Totals.Steps,
		ChurnRequested:   opts.Churn,
		ChurnKillStep:    killAt,
		ChurnRestarted:   live.ChurnRestarted,
		PeakHeapBytes:    peak,
		HeapBudgetBytes:  scaleHeapBudget(nodes, dim, mbox),
		PeakRSSBytes:     readVmHWM(),
	}
	res.WithinBudget = res.PeakHeapBytes <= res.HeapBudgetBytes

	res.AllDone = true
	for _, snap := range reg.Snapshot() {
		if !snap.Done {
			res.AllDone = false
		}
	}
	res.Healthy = reg.CheckHealth(metrics.DefaultStallAfter).Healthy

	if w.Test != nil {
		eval := w.Model.Clone()
		if err := eval.SetParamVector(live.Final); err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		res.FinalAccuracy = nn.Accuracy(eval, w.Test.X, w.Test.Labels)
	}
	return res, nil
}
