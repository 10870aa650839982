package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/transport"
)

// The scale experiment measures what the bounded-mailbox actor runtime
// unlocks: node counts in the hundreds inside one process. Before it, the
// unbounded transport.Mailbox made every fast sender a memory liability;
// with per-sender bounds (and per-link couriers on the send side) a node's
// worst-case buffering is O(n·cap·frame) by construction, so deployments
// are limited by arithmetic, not by inbox growth. The sweep runs the
// deterministic simulator and the goroutine-per-node live runtime at
// growing populations and reports steps/sec and the sampled peak heap
// against an explicit derived budget.

// ScaleRow is one population point of the sweep.
type ScaleRow struct {
	// Runtime is "sim" (virtual-time engine) or "live" (goroutine per
	// node over the in-process transport).
	Runtime string `json:"runtime"`
	// Servers + Workers = Nodes, the deployment population (f = 0: the
	// sweep studies runtime scaling, not Byzantine filtering).
	Servers int `json:"servers"`
	Workers int `json:"workers"`
	Nodes   int `json:"nodes"`
	// Steps is the number of learning steps completed.
	Steps int `json:"steps"`
	// StepsPerSec is Steps over the run's wall-clock time.
	StepsPerSec float64 `json:"stepsPerSec"`
	// PeakHeapBytes is the sampled runtime.ReadMemStats HeapAlloc
	// high-water mark during the run.
	PeakHeapBytes uint64 `json:"peakHeapBytes"`
	// HeapBudgetBytes is the derived bound peak heap is held to on live
	// rows: a fixed process floor plus a multiple of nodes × cap × frame
	// bytes. Zero on sim rows (virtual time buffers one step, not a
	// network).
	HeapBudgetBytes uint64 `json:"heapBudgetBytes,omitempty"`
	// DroppedOverflow counts frames shed by the bounded mailboxes during
	// live rows — zero in an overflow-free (bulk-synchronous) schedule.
	DroppedOverflow uint64 `json:"droppedOverflow,omitempty"`
}

// ScaleSweepResult is the full sweep plus its verdict.
type ScaleSweepResult struct {
	// Mailbox is the bound the live rows ran under.
	Mailbox transport.MailboxConfig
	// Rows holds sim rows first, then live rows, each in growing order.
	Rows []ScaleRow
	// WithinBudget reports that every live row's peak heap stayed under
	// its derived budget — the line CI greps for.
	WithinBudget bool
	// PeakRSSBytes is the process VmHWM after the sweep (0 where
	// /proc/self/status is unavailable). Process-wide and monotonic, so
	// informational rather than per-row.
	PeakRSSBytes uint64
}

// scaleDims shapes the sweep. The populations are what the acceptance
// targets name: a simulated cluster beyond 200 nodes and a live cluster at
// 100, with CI smoke sizes of 64 and 24.
var (
	scaleSimWorkers   = []int{20, 50, 100, 200}
	scaleLiveWorkers  = []int{24, 46, 94}
	scaleSmokeSim     = []int{58}
	scaleSmokeLive    = []int{18}
	scaleServers      = 6
	scaleSimSteps     = 20
	scaleLiveSteps    = 10
	scaleSmokeSteps   = 8
	scaleBatch        = 8
	scaleLiveTimeout  = 2 * time.Minute
	scaleHeapFloor    = uint64(64 << 20) // model/dataset/runtime floor
	scaleBudgetFactor = uint64(8)        // slack over the n·cap·frame bound
)

// DefaultScaleMailbox is the bound the scale experiment arms when the
// caller passes the zero config: drop-oldest (superseded-step frames are
// the protocol's own semantics) at the transport's default cap.
var DefaultScaleMailbox = transport.MailboxConfig{
	Cap:    transport.DefaultMailboxCap,
	Policy: transport.DropOldest,
}

// heapSampler polls runtime.ReadMemStats on a short period and keeps the
// HeapAlloc high-water mark. Sampling misses sub-period spikes, which is
// fine for a bound meant to catch unbounded growth (megabytes per second
// under a spraying sender), not byte-exact accounting.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > h.peak {
				h.peak = ms.HeapAlloc
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Peak stops the sampler and returns the high-water mark.
func (h *heapSampler) Peak() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// measureRun executes fn under the heap sampler, from a GC-settled
// baseline, and returns wall time and peak heap.
func measureRun(fn func() error) (time.Duration, uint64, error) {
	runtime.GC()
	sampler := startHeapSampler()
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	peak := sampler.Peak()
	return elapsed, peak, err
}

// scaleHeapBudget derives the live-row bound: a fixed floor for the
// process (models, datasets, goroutine stacks) plus slack × n × cap
// mailbox slots of one frame each, mirroring the O(n·cap·frame) worst
// case the bounded runtime guarantees.
func scaleHeapBudget(nodes, dim int, mbox transport.MailboxConfig) uint64 {
	frame := uint64(8*dim + 128) // payload + header/bookkeeping slack
	return scaleHeapFloor + scaleBudgetFactor*uint64(nodes)*uint64(mbox.Cap)*frame
}

// ScaleSweep runs the population sweep. smoke selects the CI sizing; the
// zero mbox selects DefaultScaleMailbox for the live rows. Runs execute
// sequentially — the heap measurement requires the run under test to be
// the only one resident.
func ScaleSweep(s Scale, smoke bool, mbox transport.MailboxConfig) (*ScaleSweepResult, error) {
	if !mbox.Bounded() {
		mbox = DefaultScaleMailbox
	}
	simWorkers, liveWorkers := scaleSimWorkers, scaleLiveWorkers
	simSteps, liveSteps := scaleSimSteps, scaleLiveSteps
	if smoke {
		simWorkers, liveWorkers = scaleSmokeSim, scaleSmokeLive
		simSteps, liveSteps = scaleSmokeSteps, scaleSmokeSteps
	}
	res := &ScaleSweepResult{Mailbox: mbox, WithinBudget: true}
	w := core.BlobWorkload(s.Examples, s.Seed)
	dim := w.Model.ParamCount()

	for _, workers := range simWorkers {
		cfg := core.Config{
			Mode:       core.ModeGuanYu,
			Model:      w.Model,
			Train:      w.Train,
			Test:       w.Test,
			NumServers: scaleServers,
			NumWorkers: workers,
			Steps:      simSteps,
			Batch:      scaleBatch,
			EvalEvery:  simSteps, // throughput run: evaluate once, not per step
			Seed:       s.Seed,
		}
		elapsed, peak, err := measureRun(func() error {
			_, err := core.Run(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("scale: sim %d workers: %w", workers, err)
		}
		res.Rows = append(res.Rows, ScaleRow{
			Runtime: "sim", Servers: scaleServers, Workers: workers,
			Nodes: scaleServers + workers, Steps: simSteps,
			StepsPerSec:   float64(simSteps) / elapsed.Seconds(),
			PeakHeapBytes: peak,
		})
	}

	for _, workers := range liveWorkers {
		nodes := scaleServers + workers
		cfg := cluster.LiveConfig{
			Model:      w.Model,
			Train:      w.Train,
			NumServers: scaleServers, FServers: 0,
			NumWorkers: workers, FWorkers: 0,
			Steps:   liveSteps,
			Batch:   scaleBatch,
			Timeout: scaleLiveTimeout,
			Seed:    s.Seed,
			Mailbox: mbox,
		}
		var dropped uint64
		elapsed, peak, err := measureRun(func() error {
			r, err := cluster.RunLive(cfg)
			if err == nil {
				dropped = r.Totals.DroppedOverflow + r.Totals.CourierDropped
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("scale: live %d nodes: %w", nodes, err)
		}
		budget := scaleHeapBudget(nodes, dim, mbox)
		if peak > budget {
			res.WithinBudget = false
		}
		res.Rows = append(res.Rows, ScaleRow{
			Runtime: "live", Servers: scaleServers, Workers: workers,
			Nodes: nodes, Steps: liveSteps,
			StepsPerSec:     float64(liveSteps) / elapsed.Seconds(),
			PeakHeapBytes:   peak,
			HeapBudgetBytes: budget,
			DroppedOverflow: dropped,
		})
	}
	res.PeakRSSBytes = readVmHWM()
	return res, nil
}

// readVmHWM returns the process's resident-set high-water mark from
// /proc/self/status, or 0 where the file (or the field) is unavailable.
func readVmHWM() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// Format renders the sweep with the budget verdict CI greps for.
func (r *ScaleSweepResult) Format() string {
	var b strings.Builder
	b.WriteString("# Scale sweep: steps/sec and peak heap vs node count\n")
	fmt.Fprintf(&b, "(live rows bounded by mailbox %s; budget = %s floor + %d x nodes x cap x frame)\n",
		r.Mailbox, formatBytes(int(scaleHeapFloor)), scaleBudgetFactor)
	fmt.Fprintf(&b, "%-8s %-8s %-9s %-7s %-11s %-12s %-12s %-9s\n",
		"runtime", "nodes", "workers", "steps", "steps/sec", "peak heap", "budget", "overflow")
	for _, row := range r.Rows {
		budget := "-"
		if row.HeapBudgetBytes > 0 {
			budget = formatBytes(int(row.HeapBudgetBytes))
		}
		fmt.Fprintf(&b, "%-8s %-8d %-9d %-7d %-11.2f %-12s %-12s %-9d\n",
			row.Runtime, row.Nodes, row.Workers, row.Steps, row.StepsPerSec,
			formatBytes(int(row.PeakHeapBytes)), budget, row.DroppedOverflow)
	}
	if r.PeakRSSBytes > 0 {
		fmt.Fprintf(&b, "process VmHWM after sweep: %s\n", formatBytes(int(r.PeakRSSBytes)))
	}
	verdict := "yes"
	if !r.WithinBudget {
		verdict = "NO"
	}
	fmt.Fprintf(&b, "peak heap within budget: %s\n", verdict)
	b.WriteString("expected: steps/sec declines gracefully with nodes; live peak heap within budget at every population\n")
	return b.String()
}

// ScaleBenchJSON renders the sweep rows as the committed BENCH_scale.json
// baseline: indented, newline-terminated, stable field order. Timing is
// machine-dependent, so the committed numbers are an informational
// baseline — CI asserts the budget verdict, not row equality.
func ScaleBenchJSON(r *ScaleSweepResult) ([]byte, error) {
	payload := struct {
		Mailbox string     `json:"mailbox"`
		Rows    []ScaleRow `json:"rows"`
	}{Mailbox: r.Mailbox.String(), Rows: r.Rows}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
