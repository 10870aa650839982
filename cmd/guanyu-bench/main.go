// Command guanyu-bench regenerates the paper's evaluation: every table and
// figure of Section 5 plus the design-choice ablations listed in DESIGN.md,
// through the public guanyu experiment API.
//
// Usage:
//
//	guanyu-bench -exp all            # everything, CI scale
//	guanyu-bench -exp fig3 -full     # one experiment, paper-leaning scale
//	guanyu-bench -exp matrix         # scenario matrix: attack × GAR × fault grid
//	guanyu-bench -exp matrix -smoke  # smallest grid cell at tiny scale (CI)
//	guanyu-bench -exp matrix -attacks alie,antikrum -faults none,chaos
//	guanyu-bench -exp throughput     # wire codec: serialization-bound steps/sec + MB/s
//	guanyu-bench -list               # show experiment ids
//
// Output is plain text, one table/series block per experiment, with the
// paper's expected shape quoted next to each measurement.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/guanyu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "guanyu-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("guanyu-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id or 'all'")
		full     = fs.Bool("full", false, "use the larger (slower) scale")
		smoke    = fs.Bool("smoke", false, "CI smoke sizing: tiny scale and the smallest scenario-matrix cell")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		seed     = fs.Uint64("seed", 42, "experiment seed")
		attacks  = fs.String("attacks", "", "scenario matrix only: comma-separated attack specs (default grid when empty)")
		rules    = fs.String("rules", "", "scenario matrix only: comma-separated gradient GAR names")
		faults   = fs.String("faults", "", "scenario matrix only: comma-separated fault profile specs")
		churn    = fs.String("churn", "", "scenario matrix: comma-separated churn scenarios (none | crash | rolling | joinleave | kind:server@step,... schedules); soak: any non-empty value arms the kill/restart cycle")
		parallel = fs.Int("parallel", 0, "worker count for kernels and concurrent curves (0 = all CPUs, 1 = serial; results are identical at any setting)")
		shard    = fs.Int("shard", 0, "memory experiment only: shard size in coordinates (0 = per-dimension default)")
		compAxis = fs.String("compress", "", "scenario matrix only: comma-separated compression specs (none | float32 | delta[:key=N] | topk:k=F)")
		wireJSON = fs.String("wire-json", "", "write the bandwidth experiment's wire rows to this file (commit as BENCH_wire.json) and exit")
		wireChk  = fs.String("wire-check", "", "re-measure the bandwidth wire rows and compare byte counts against this committed BENCH_wire.json, then exit")
		mbox     = fs.String("mailbox", "", "scale experiment only: mailbox bound for the live rows, policy[:cap=N] (default drop-oldest at the transport cap)")
		scaleOut = fs.String("scale-json", "", "scale experiment only: also write the sweep rows to this file (commit as BENCH_scale.json)")
		metrics  = fs.String("metrics", "", "soak experiment only: serve /metrics + /healthz on this address for the run's duration (e.g. 127.0.0.1:9464)")
		linger   = fs.Duration("linger", 0, "soak experiment only: keep the -metrics listener up this long after the run, for external scrapers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	guanyu.SetParallelism(*parallel)
	if *list {
		for _, id := range guanyu.ExperimentIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}
	scale := guanyu.QuickScale
	if *full {
		scale = guanyu.FullScale
	}
	if *smoke {
		scale = guanyu.ExperimentScale{Steps: 10, Batch: 8, SmallBatch: 4, Examples: 300}
	}
	scale.Seed = *seed

	// The wire-row modes skip the convergence grid: byte counts are exact
	// and cheap, which is what makes them committable and CI-checkable.
	if *wireJSON != "" || *wireChk != "" {
		rows, err := guanyu.WireRows(scale)
		if err != nil {
			return err
		}
		if *wireJSON != "" {
			data, err := guanyu.WireBenchJSON(rows)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*wireJSON, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %d wire rows to %s\n", len(rows), *wireJSON)
			return nil
		}
		committed, err := os.ReadFile(*wireChk)
		if err != nil {
			return err
		}
		if err := guanyu.CheckWireBench(committed, rows); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d wire rows match %s\n", len(rows), *wireChk)
		return nil
	}

	// -smoke and the grid-axis flags change the matrix experiment's spec;
	// runOne routes "matrix" through it so they apply under -exp all too.
	customMatrix := *smoke || *attacks != "" || *rules != "" || *faults != "" || *compAxis != "" || *churn != ""
	runOne := func(id string) error {
		if id == "scale" {
			// Routed here rather than through RunExperiment so -smoke picks the
			// CI population sizing and -mailbox/-scale-json apply.
			mcfg, err := guanyu.ParseMailbox(*mbox)
			if err != nil {
				return err
			}
			r, err := guanyu.ScaleSweep(scale, *smoke, mcfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r.Format())
			if *scaleOut != "" {
				data, err := guanyu.ScaleBenchJSON(r)
				if err != nil {
					return err
				}
				if err := os.WriteFile(*scaleOut, data, 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote %d scale rows to %s\n", len(r.Rows), *scaleOut)
			}
			return nil
		}
		if id == "soak" {
			// Routed here rather than through RunExperiment so -smoke picks the
			// CI sizing, -metrics/-linger expose the live registry, and -churn
			// arms the kill/restart cycle.
			r, err := guanyu.Soak(scale, guanyu.SoakOptions{
				Smoke:       *smoke,
				MetricsAddr: *metrics,
				Linger:      *linger,
				Churn:       *churn != "",
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r.Format())
			return nil
		}
		if id == "memory" && *shard > 0 {
			rows, err := guanyu.Memory(scale, *shard)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, guanyu.FormatMemory(rows))
			return nil
		}
		if id == "matrix" && customMatrix {
			spec := guanyu.DefaultMatrixSpec()
			if *smoke {
				spec = guanyu.SmokeMatrixSpec()
			}
			if *attacks != "" {
				spec.Attacks = strings.Split(*attacks, ",")
			}
			if *rules != "" {
				spec.Rules = strings.Split(*rules, ",")
			}
			if *faults != "" {
				spec.Faults = strings.Split(*faults, ",")
			}
			if *compAxis != "" {
				spec.Compress = strings.Split(*compAxis, ",")
			}
			if *churn != "" {
				// Semicolons separate scenarios so explicit schedules can keep
				// their internal commas: -churn "none;crash:0@5,recover:0@9".
				spec.Churn = strings.Split(*churn, ";")
			}
			r, err := guanyu.Matrix(scale, spec)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r.Format())
			return nil
		}
		if err := guanyu.RunExperiment(id, scale, out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return nil
	}

	if *exp != "all" {
		return runOne(*exp)
	}
	for _, id := range guanyu.ExperimentIDs() {
		if err := runOne(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
