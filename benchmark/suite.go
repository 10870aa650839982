package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// suiteConfig is one pass over the workloads.
type suiteConfig struct {
	only    string
	repeats int
	seed    uint64
	seconds float64
	procs   int
	quick   bool
	outDir  string
}

// machineInfo is recorded in every results file: numbers from two machines,
// Go versions or commits are not comparable.
type machineInfo struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

func thisMachine() machineInfo {
	m := machineInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				m.Commit = kv.Value
			}
		}
	}
	return m
}

// summary condenses one end-to-end metric's repeats.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadResults is one workload's row of a results file. A run that
// errors, is killed by the watchdog or fails an output check fails all its
// steps.
type workloadResults struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
}

// suiteResults is the results file.
type suiteResults struct {
	Machine   machineInfo                 `json:"machine"`
	Seed      uint64                      `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Procs     int                         `json:"procs"`
	Repeats   int                         `json:"repeats"`
	Quick     bool                        `json:"quick"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runChild runs one workload once in a fresh process and parses its result
// line. The child is killed at the watchdog limit.
func runChild(exe string, cfg suiteConfig, name string, trace int) (*result, error) {
	limit := watchdogLimit(cfg.seconds) + 15*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args := []string{
		"--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--out", cfg.outDir, "--procs", strconv.Itoa(cfg.procs),
	}
	if cfg.quick {
		args = append(args, "--quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	fmt.Print(strings.Join(lines[:len(lines)-1], "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runSuite runs the selected workloads round-robin — repeat 1 of every
// workload, then repeat 2, … so drift in the machine's state spreads over
// all of them — then one traced run each, and writes <out>/results.json.
func runSuite(cfg suiteConfig) error {
	if cfg.repeats < 1 {
		return fmt.Errorf("-repeats must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	selected := workloads
	if cfg.only != "" {
		s, ok := findWorkload(cfg.only)
		if !ok {
			return fmt.Errorf("unknown workload %q", cfg.only)
		}
		selected = []spec{s}
	}
	out := suiteResults{
		Machine: thisMachine(), Seed: cfg.seed, Seconds: cfg.seconds, Procs: cfg.procs, Repeats: cfg.repeats, Quick: cfg.quick,
		Workloads: make(map[string]*workloadResults),
	}
	samples := make(map[string]map[string][]float64)
	for _, s := range selected {
		out.Workloads[s.name] = &workloadResults{EndToEnd: map[string]summary{}}
		samples[s.name] = make(map[string][]float64)
	}
	book := func(s spec, res *result, err error) bool {
		w := out.Workloads[s.name]
		if err != nil {
			// Nothing came back: book one nominal run's worth of steps.
			fmt.Fprintln(os.Stderr, "benchmark: run failed:", err)
			steps := s.steps * s.minRounds
			w.Attempted, w.Failed = w.Attempted+steps, w.Failed+steps
			return false
		}
		w.Attempted += res.Attempted
		if !res.Correct {
			w.Failed += res.Attempted
			return false
		}
		w.Failed += res.Failed
		return true
	}
	for rep := 0; rep < cfg.repeats; rep++ {
		for _, s := range selected {
			res, err := runChild(exe, cfg, s.name, 0)
			if book(s, res, err) {
				for name, v := range res.Metrics {
					samples[s.name][name] = append(samples[s.name][name], v.Value)
				}
			}
		}
	}
	for _, s := range selected {
		res, err := runChild(exe, cfg, s.name, 1)
		if book(s, res, err) {
			out.Workloads[s.name].PerLayer = res.Metrics
		}
	}
	for _, s := range selected {
		w := out.Workloads[s.name]
		w.FailShare = float64(w.Failed) / float64(w.Attempted)
		for _, d := range endToEnd {
			xs := samples[s.name][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			w.EndToEnd[d.Name] = summary{Unit: d.Unit, Median: median(xs), Q1: q1, Q3: q3, Values: xs}
		}
	}
	printSuite(os.Stdout, &out)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	return nil
}

func printSuite(w io.Writer, r *suiteResults) {
	fmt.Fprintf(w, "# suite: nproc=%d procs=%d %s commit=%s seed=%d seconds=%g repeats=%d\n",
		r.Machine.NumCPU, r.Procs, r.Machine.GoVersion, r.Machine.Commit, r.Seed, r.Seconds, r.Repeats)
	for _, s := range workloads {
		wl, ok := r.Workloads[s.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s  fail_share=%g (%d/%d)\n", s.name, wl.FailShare, wl.Failed, wl.Attempted)
		for _, d := range endToEnd {
			if e, ok := wl.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "  %-20s median %12.6g  q1 %12.6g  q3 %12.6g  n=%d  %s\n",
					d.Name, e.Median, e.Q1, e.Q3, len(e.Values), e.Unit)
			}
		}
	}
}

// Verdicts of the comparator.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate's repeats with a baseline's for one metric.
// The run-to-run spread (inter-quartile distance over the median, the larger
// of the two sides) must fit inside the bound for any verdict at all;
// otherwise the metric is unresolved, not unchanged. Within the bound:
// worse when the candidate's median is worse by more than the bound, better
// when it is better by more than the spread, same otherwise.
func judge(d metricDef, base, cand []float64) string {
	spread := math.Max(spreadShare(base), spreadShare(cand))
	if spread > d.Bound {
		return verdictUnresolved
	}
	mb, mc := median(base), median(cand)
	worsening := (mc - mb) / math.Abs(mb)
	if d.Better == higher {
		worsening = -worsening
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse
	case worsening < 0 && -worsening > spread:
		return verdictBetter
	default:
		return verdictSame
	}
}

func loadResults(path string) (*suiteResults, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResults
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether anything regressed: a "worse" verdict or a higher fail share.
func compareFiles(w io.Writer, basePath, candPath string) (regressed bool, err error) {
	base, err := loadResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := loadResults(candPath)
	if err != nil {
		return false, err
	}
	if base.Machine != cand.Machine {
		fmt.Fprintf(w, "# note: baseline %+v and candidate %+v differ in machine, Go version or commit\n",
			base.Machine, cand.Machine)
	}
	if base.Quick != cand.Quick || base.Seconds != cand.Seconds || base.Procs != cand.Procs {
		return false, fmt.Errorf("the two files were measured with different settings (quick %v/%v, seconds %g/%g, procs %d/%d)",
			base.Quick, cand.Quick, base.Seconds, cand.Seconds, base.Procs, cand.Procs)
	}
	fmt.Fprintf(w, "%-22s %-20s %14s %14s %8s  %s\n", "workload", "metric", "baseline", "candidate", "change", "verdict")
	for _, s := range workloads {
		b, c := base.Workloads[s.name], cand.Workloads[s.name]
		if b == nil || c == nil {
			continue
		}
		for _, d := range endToEnd {
			eb, ec := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			if len(eb.Values) == 0 || len(ec.Values) == 0 {
				continue
			}
			v := judge(d, eb.Values, ec.Values)
			regressed = regressed || v == verdictWorse
			fmt.Fprintf(w, "%-22s %-20s %14.6g %14.6g %+7.1f%%  %s\n",
				s.name, d.Name, eb.Median, ec.Median, 100*(ec.Median-eb.Median)/eb.Median, v)
		}
		if c.FailShare > b.FailShare {
			regressed = true
			fmt.Fprintf(w, "%-22s %-20s %14.6g %14.6g %8s  %s\n", s.name, "fail_share", b.FailShare, c.FailShare, "", verdictWorse)
		}
	}
	return regressed, nil
}
