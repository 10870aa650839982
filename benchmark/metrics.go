package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric. Bound applies to end-to-end metrics only:
// the share of the parent's median by which the metric may get worse before
// a change counts as a regression. Per-layer metrics leave it 0, which keeps
// the key out of BENCHMARK.json, where they must not carry one.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the system sees, measured with tracing off on
// one processor (see defaultProcs); the two clocks are the fastest tenth of
// the run's samples (see fastShare), the counts medians over its rounds. None
// is ever 0. The time bounds are as wide as the contract allows because a
// bound must be three times the run-to-run spread, which on the shared box
// the baseline was taken on still reaches 7 % for steps_per_s (README,
// "Machine notes"); the allocation count repeats to 0.5 %. CPU seconds per
// step is the per-layer budget.total_ms: on one processor it is just
// 1 / steps_per_s.
var endToEnd = []metricDef{
	{"steps_per_s", "1/s", higher, 0.25},
	{"alloc_mb_per_step", "MB", lower, 0.05},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is measured by the traced run only. A metric whose layer a
// workload does not execute reads 0 there.
var perLayer = []metricDef{
	{Name: "transport.frames_sent_per_step", Unit: "count", Better: lower},
	{Name: "transport.frames_recv_per_step", Unit: "count", Better: lower},
	{Name: "transport.payload_mb_per_step", Unit: "MB", Better: lower},
	{Name: "transport.encode_us_per_frame", Unit: "us", Better: lower},
	{Name: "transport.decode_us_per_frame", Unit: "us", Better: lower},
	{Name: "transport.validate_us_per_frame", Unit: "us", Better: lower},
	{Name: "transport.loopback_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "transport.send_ms_per_step", Unit: "ms", Better: lower},
	{Name: "transport.recv_wait_ms_per_step", Unit: "ms", Better: lower},
	{Name: "compress.encode_us_per_frame", Unit: "us", Better: lower},
	{Name: "compress.decode_us_per_frame", Unit: "us", Better: lower},
	{Name: "compress.ratio", Unit: "ratio", Better: higher},
	{Name: "gar.multikrum_ms", Unit: "ms", Better: lower},
	{Name: "gar.median_ms", Unit: "ms", Better: lower},
	{Name: "gar.mean_ms", Unit: "ms", Better: lower},
	{Name: "gar.grad_rule_ms_per_step", Unit: "ms", Better: lower},
	{Name: "gar.param_rule_ms_per_step", Unit: "ms", Better: lower},
	{Name: "gar.calls_per_step", Unit: "count", Better: lower},
	{Name: "nn.batch_gradient_ms", Unit: "ms", Better: lower},
	{Name: "nn.gradient_ms_per_step", Unit: "ms", Better: lower},
	{Name: "cluster.server_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.server_step_ms_tail", Unit: "ms", Better: lower},
	{Name: "cluster.server_step_tail_pct", Unit: "%", Better: higher},
	{Name: "cluster.server_step_samples", Unit: "count", Better: higher},
	{Name: "cluster.worker_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "cluster.server_self_ms_per_step", Unit: "ms", Better: lower},
	{Name: "cluster.worker_self_ms_per_step", Unit: "ms", Better: lower},
	{Name: "cluster.update_ms_per_step", Unit: "ms", Better: lower},
	{Name: "cluster.mesh_setup_ms", Unit: "ms", Better: lower},
	{Name: "cluster.teardown_ms", Unit: "ms", Better: lower},
	{Name: "cluster.checkpoint_write_ms", Unit: "ms", Better: lower},
	{Name: "cluster.server_spread_linf", Unit: "abs", Better: lower},
	{Name: "core.sim_ms_per_update", Unit: "ms", Better: lower},
	{Name: "core.updates_to_target", Unit: "count", Better: lower},
	{Name: "guanyu.final_accuracy", Unit: "fraction", Better: higher},
	{Name: "runtime.gc_per_step", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_per_step", Unit: "ms", Better: lower},
	{Name: "budget.nn_ms", Unit: "ms", Better: lower},
	{Name: "budget.encode_ms", Unit: "ms", Better: lower},
	{Name: "budget.decode_ms", Unit: "ms", Better: lower},
	{Name: "budget.socket_ms", Unit: "ms", Better: lower},
	{Name: "budget.validate_ms", Unit: "ms", Better: lower},
	{Name: "budget.compress_ms", Unit: "ms", Better: lower},
	{Name: "budget.multikrum_ms", Unit: "ms", Better: lower},
	{Name: "budget.median_ms", Unit: "ms", Better: lower},
	{Name: "budget.unattributed_ms", Unit: "ms", Better: lower},
	{Name: "budget.total_ms", Unit: "ms", Better: lower},
	{Name: "budget.runtime_overhead_share", Unit: "fraction", Better: lower},
	{Name: "budget.resilience_overhead_share", Unit: "fraction", Better: lower},
	{Name: "trace.overhead_share", Unit: "fraction", Better: lower},
}

// runSeconds is how long the acceptance driver lets one run measure.
const runSeconds = 26

// manifest is BENCHMARK.json: the contract between this benchmark and
// whatever drives it. `go run . -manifest` regenerates the file from the
// tables above, so the two cannot drift.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{s.name, s.why})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(currentManifest())
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report assembles the metrics named by defs from vals (absent = 0: the
// layer does not run on this workload) and fails on a value no def declares,
// so nothing is ever printed that BENCHMARK.json does not list.
func report(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{vals[d.Name], d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}

// printTable writes every metric by name with its unit, sorted, for a reader.
func printTable(w io.Writer, title string, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}
