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
//	guanyu-bench -wire-check BENCH_wire.json  # exact wire bytes per compression scheme
//	guanyu-bench -list               # show experiment ids
//
// Output is plain text, one table/series block per experiment, with the
// paper's expected shape quoted next to each measurement. Systems numbers
// of the live runtime (steps/s, MB/step, resident memory) come from the
// benchmark module under benchmark/, not from this command.
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
		churn    = fs.String("churn", "", "scenario matrix only: semicolon-separated churn scenarios (none | crash | rolling | joinleave | kind:server@step,... schedules)")
		parallel = fs.Int("parallel", 0, "worker count for kernels and concurrent curves (0 = all CPUs, 1 = serial; results are identical at any setting)")
		compAxis = fs.String("compress", "", "scenario matrix only: comma-separated compression specs (none | float32 | delta[:key=N] | topk:k=F)")
		wireJSON = fs.String("wire-json", "", "write the bandwidth experiment's wire rows to this file (commit as BENCH_wire.json) and exit")
		wireChk  = fs.String("wire-check", "", "re-measure the bandwidth wire rows and compare byte counts against this committed BENCH_wire.json, then exit")
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
