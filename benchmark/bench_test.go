package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) || !near(median(xs), 5.5) {
		t.Fatalf("got q1=%v median=%v q3=%v", q1, median(xs), q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); !near(q1, 0.75) || !near(q3, 2.25) {
		t.Fatalf("two values: q1=%v q3=%v", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Fatalf("one value: q1=%v q3=%v", q1, q3)
	}
	// quantiles([90, 100, 100, 100, 110], n=4) == [95, 100, 105]
	if got := spreadShare([]float64{90, 100, 110, 100, 100}); !near(got, 0.10) {
		t.Fatalf("spreadShare = %v, want 0.10", got)
	}
}

func TestFastQuantilesPickTheUndisturbedTenth(t *testing.T) {
	// 0..10: the 90th percentile of eleven values is the tenth, the 10th the
	// second; between order statistics the picker interpolates.
	xs := []float64{10, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5}
	if r, d := fastRate(xs), fastTime(xs); !near(r, 9) || !near(d, 1) {
		t.Fatalf("fastRate=%v fastTime=%v, want 9 and 1", r, d)
	}
	if got := quantile([]float64{1, 2, 4}, 0.75); !near(got, 3) {
		t.Fatalf("quantile([1 2 4], 0.75) = %v, want 3", got)
	}
	if got := fastRate([]float64{7}); got != 7 {
		t.Fatalf("one value: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatalf("no values must give NaN")
	}
	// A neighbour that halves the speed of 60 % of the rounds moves the
	// median by half and the fast rate not at all.
	quiet, busy := make([]float64, 20), make([]float64, 20)
	for i := range quiet {
		quiet[i], busy[i] = 50, 50
		if i%5 < 3 {
			busy[i] = 25
		}
	}
	if fastRate(quiet) != fastRate(busy) || median(quiet) == median(busy) {
		t.Fatalf("fast %v vs %v, median %v vs %v", fastRate(quiet), fastRate(busy), median(quiet), median(busy))
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if v, pct, ok := tail(seq(10)); ok || v != 10 || pct != 100 {
		t.Fatalf("10 samples: value=%v pct=%v ok=%v, want the flagged maximum", v, pct, ok)
	}
	for _, c := range []struct {
		n       int
		v, pctl float64
	}{{11, 1, 100.0 / 11}, {100, 90, 90}, {1000, 990, 99}} {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.v || !near(pct, c.pctl) {
			t.Fatalf("%d samples: value=%v pct=%v ok=%v, want %v at p%v", c.n, v, pct, ok, c.v, c.pctl)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Fatalf("%d samples: %d beyond the tail value, want %d", c.n, beyond, tailBeyond)
		}
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 45},  // grandchild: not the root's child
	}
	self := selfTimes(spans)
	if self[1] != 50 {
		t.Fatalf("root self time %d, want 100 - (40 + 10) = 50", self[1])
	}
	if self[3] != 10 || self[2] != 20 || self[5] != 20 {
		t.Fatalf("self times %v", self)
	}
}

func TestLinkStepsParentsCallsToTheirStep(t *testing.T) {
	params, grad := "params", "gradient"
	spans := []span{
		{ID: 1, Name: spanRun, Node: "ps1", Step: -1, Start: 0, End: 100},
		{ID: 2, Name: spanRecv, Node: "ps1", Step: -1, Start: 2, End: 5}, // before any step
		{ID: 3, Name: spanSend, Kind: params, Node: "ps1", Step: 0, Start: 10, End: 12},
		{ID: 4, Name: spanSend, Kind: params, Node: "ps1", Step: 0, Start: 13, End: 15},
		{ID: 5, Name: spanAggregate, Kind: roleGrad, Node: "ps1", Step: -1, Start: 30, End: 40},
		{ID: 6, Name: spanSend, Kind: params, Node: "ps1", Step: 1, Start: 50, End: 52},
		{ID: 7, Name: spanRecv, Node: "ps1", Step: -1, Start: 60, End: 90},
		{ID: 8, Name: spanRun, Node: "wrk0", Step: -1, Start: 0, End: 80},
		{ID: 9, Name: spanSend, Kind: grad, Node: "wrk0", Step: 0, Start: 20, End: 21},
		{ID: 10, Name: spanSend, Kind: params, Node: "wrk0", Step: 7, Start: 30, End: 31}, // not a worker's step opener
	}
	out := linkSteps(spans)
	byID := map[int]span{}
	var steps []span
	for _, s := range out {
		byID[s.ID] = s
		if s.Name == spanStep {
			steps = append(steps, s)
		}
	}
	if len(steps) != 3 {
		t.Fatalf("%d step spans, want ps1 steps 0,1 and wrk0 step 0: %+v", len(steps), steps)
	}
	step := func(node string, n int) span {
		for _, s := range steps {
			if s.Node == node && s.Step == n {
				return s
			}
		}
		t.Fatalf("no step %d for %s", n, node)
		return span{}
	}
	s0, s1, w0 := step("ps1", 0), step("ps1", 1), step("wrk0", 0)
	if s0.Start != 10 || s0.End != 50 || s1.Start != 50 || s1.End != 100 || w0.Start != 20 || w0.End != 80 {
		t.Fatalf("step bounds: %+v %+v %+v", s0, s1, w0)
	}
	if s0.Parent != 1 || w0.Parent != 8 {
		t.Fatalf("step spans must hang off their node's run span")
	}
	if byID[2].Parent != 1 {
		t.Fatalf("a call before the first step belongs to the run span, got parent %d", byID[2].Parent)
	}
	if byID[5].Parent != s0.ID || byID[5].Step != 0 {
		t.Fatalf("aggregate at t=30 belongs to step 0: %+v", byID[5])
	}
	if byID[7].Parent != s1.ID || byID[7].Step != 1 {
		t.Fatalf("recv at t=60 belongs to step 1: %+v", byID[7])
	}
	// One average step: 45 of ps1's 90 step-nanoseconds are inside calls.
	self := selfTimes(out)
	if got := self[s0.ID] + self[s1.ID]; got != (40-4-10)+(50-2-30) {
		t.Fatalf("step self time %d", got)
	}
}

func TestGapBetweenRuleAndFirstSend(t *testing.T) {
	s := workloads[0]
	spans := []span{
		{Name: spanAggregate, Kind: roleParam, Node: "wrk7", Start: 0, End: 1e6},
		{Name: spanSend, Kind: "gradient", Node: "wrk7", Start: 4e6, End: 5e6},
		{Name: spanSend, Kind: "gradient", Node: "wrk7", Start: 6e6, End: 7e6}, // only the first send closes the gap
		{Name: spanFold, Kind: roleParam, Node: "wrk7", Start: 10e6, End: 11e6},
		{Name: spanResult, Kind: roleParam, Node: "wrk7", Start: 11e6, End: 12e6},
		{Name: spanSend, Kind: "gradient", Node: "wrk7", Start: 13e6, End: 14e6},
		{Name: spanAggregate, Kind: roleGrad, Node: "ps2", Start: 0, End: 1e6}, // a server: not a worker gap
		{Name: spanSend, Kind: "peer-params", Node: "ps2", Start: 9e6, End: 10e6},
	}
	if got := meanGapMS(s, spans, false, roleParam, "gradient"); !near(got, 2) {
		t.Fatalf("worker gap %v ms, want mean(3, 1) = 2", got)
	}
	if got := meanGapMS(s, spans, true, roleGrad, "peer-params"); !near(got, 8) {
		t.Fatalf("server gap %v ms, want 8", got)
	}
}

func TestBudgetRowsSumToMeasuredCPU(t *testing.T) {
	msCost := func(cpuMS float64) cost { return cost{cpu: time.Duration(cpuMS * 1e6)} }
	u := &unitCosts{
		encode: msCost(0.2), decode: msCost(0.4), validate: msCost(0.3), loopback: msCost(1.5),
		compEncode: msCost(0.05), compDecode: msCost(0.05),
		multikrum: msCost(9), median: msCost(6), mean: msCost(2), gradient: msCost(3),
	}
	c := stepCounts{framesSent: 246, framesRecv: 243, honestFrames: 216, gradients: 18, gradCalls: 6, paramCalls: 24}
	for _, total := range []float64{900, 100} { // the second leaves a negative remainder
		b := budget(c, u, total)
		sum := 0.0
		for _, row := range budgetRows {
			if _, ok := b[row]; !ok {
				t.Fatalf("row %s missing", row)
			}
			sum += b[row]
		}
		if !near(sum, total) || b["budget.total_ms"] != total {
			t.Fatalf("rows sum to %v, measured %v", sum, total)
		}
	}
	b := budget(c, u, 900)
	if !near(b["budget.socket_ms"], 246*(1.5-0.2-0.4-0.1)) {
		t.Fatalf("socket share must exclude the codec work a loopback frame also pays: %v", b["budget.socket_ms"])
	}
	if !near(b["budget.resilience_overhead_share"], (6*9+24*6-6*2)/900.0) {
		t.Fatalf("resilience share %v", b["budget.resilience_overhead_share"])
	}
}

func TestJudgeVerdicts(t *testing.T) {
	rate := metricDef{Name: "steps_per_s", Better: higher, Bound: 0.10}
	cpu := metricDef{Name: "cpu_s_per_step", Better: lower, Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.995, m, m * 1.005, m, m} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m, m * 1.2, m * 0.85, m * 1.15} }
	for _, c := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"faster", rate, steady(50), steady(60), verdictBetter},
		{"slower beyond bound", rate, steady(50), steady(44), verdictWorse},
		{"slower within bound", rate, steady(50), steady(47), verdictSame},
		{"unchanged", rate, steady(50), steady(50), verdictSame},
		{"less cpu", cpu, steady(1.0), steady(0.8), verdictBetter},
		{"more cpu", cpu, steady(1.0), steady(1.2), verdictWorse},
		{"noisy baseline", rate, noisy(50), steady(60), verdictUnresolved},
		{"noisy candidate", cpu, steady(1.0), noisy(2.0), verdictUnresolved},
	} {
		if got := judge(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64, failShare float64) string {
		r := suiteResults{Seconds: 22, Workloads: map[string]*workloadResults{
			workloads[0].name: {
				Attempted: 1000, FailShare: failShare,
				EndToEnd: map[string]summary{"steps_per_s": {Unit: "1/s", Median: rate, Values: []float64{rate, rate * 1.01, rate * 0.99}}},
			},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 50, 0)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, write("same.json", 50.2, 0)); err != nil || regressed {
		t.Fatalf("same: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if regressed, err := compareFiles(&out, base, write("slow.json", 30, 0)); err != nil || !regressed {
		t.Fatalf("40%% slower must regress: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Fatalf("no worse verdict printed:\n%s", out.String())
	}
	if regressed, err := compareFiles(&out, base, write("fails.json", 50, 0.01)); err != nil || !regressed {
		t.Fatalf("a higher fail share must regress: regressed=%v err=%v", regressed, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesProgram holds BENCHMARK.json to what the program
// declares and to the driver's limits.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := currentManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	if n := len(onDisk.Workloads); n != 4 {
		t.Fatalf("%d workloads, want 4", n)
	}
	if len(onDisk.EndToEnd) > 16 || len(onDisk.PerLayer) > 128 || len(data) > 64<<10 {
		t.Fatalf("caps exceeded: %d e2e, %d per-layer, %d bytes", len(onDisk.EndToEnd), len(onDisk.PerLayer), len(data))
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Fatalf("run_seconds %d", onDisk.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus the build check, set-up
	// and the last round's overrun (about 5 s), must fit the driver's 3420 s
	// with room for two cold builds and the longer traced runs.
	if runs := 4 + 22*len(onDisk.Workloads); float64(runs)*(float64(onDisk.RunSeconds)+5) > 3420-400 {
		t.Fatalf("%d runs of %d s do not fit the driver's budget", runs, onDisk.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for _, w := range onDisk.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range onDisk.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != higher && d.Better != lower) {
			t.Errorf("%s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Errorf("setup_s (s, lower) is missing")
	}
	for _, d := range onDisk.PerLayer {
		check(d.Name, d.Unit)
	}
}

// TestQuickSmoke runs the 20-step variants end to end: the simulator and the
// small live workload, untraced and traced, and holds every result line to
// the declared metric set.
func TestQuickSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"sim_byz", false}, {"sim_byz", true}, {"small_honest_tcp", false}, {"small_honest_tcp", true}} {
		t.Run(fmt.Sprintf("%s/trace=%v", c.workload, c.trace), func(t *testing.T) {
			s, ok := findWorkload(c.workload)
			if !ok {
				t.Fatalf("no workload %s", c.workload)
			}
			// Fewer steps than -quick's 20: the race detector slows the kernels
			// tenfold and the smoke only needs every code path once.
			q := s.quick()
			q.steps = 5
			var log bytes.Buffer
			res, err := runWorkload(ctx, runConfig{
				spec: q, seed: 5, seconds: 0.1, trace: c.trace, outDir: t.TempDir(), log: &log,
				unitTime: time.Millisecond, setupRepeats: 1,
			})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < q.steps {
				t.Fatalf("%+v\n%s", res, log.String())
			}
			defs := endToEnd
			if c.trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v (printed %v)", d.Name, v, ok)
				}
				if !c.trace && v.Value <= 0 {
					t.Errorf("end-to-end metric %s must never be 0, got %v", d.Name, v.Value)
				}
			}
			if !c.trace {
				return
			}
			sum := 0.0
			for _, row := range budgetRows {
				sum += res.Metrics[row].Value
			}
			if total := res.Metrics["budget.total_ms"].Value; math.Abs(sum-total) > 1e-6*total {
				t.Errorf("budget rows sum to %v, cpu per step is %v", sum, total)
			}
			if calls := res.Metrics["gar.calls_per_step"].Value; calls < 1 {
				t.Errorf("no rule calls traced")
			}
			if c.workload == "small_honest_tcp" {
				// 6×18 params + 18×6 gradients + 6×5 peer params, whole-vector.
				if got := res.Metrics["transport.frames_sent_per_step"].Value; got != 246 {
					t.Errorf("frames sent per step = %v, want 246", got)
				}
			}
		})
	}
}
