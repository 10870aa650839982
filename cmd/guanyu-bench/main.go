// Command guanyu-bench regenerates the paper's evaluation: every table and
// figure of Section 5 plus the design-choice ablations listed in DESIGN.md,
// straight from the experiment suite (internal/experiments).
//
// Usage:
//
//	guanyu-bench -exp all                # everything, CI scale
//	guanyu-bench -exp fig3 -scale full   # one experiment, paper-leaning scale
//	guanyu-bench -exp matrix             # scenario matrix: attack × GAR × fault grid
//	guanyu-bench -exp all -scale smoke   # tiny scale, smallest matrix cell (CI)
//	guanyu-bench -exp matrix -attacks alie,antikrum -faults none,chaos
//	guanyu-bench -wire-check BENCH_wire.json  # exact wire bytes per compression scheme
//
// An unknown -exp prints the experiment ids. Output is plain text, one
// table/series block per experiment, with the paper's expected shape quoted
// next to each measurement. Systems numbers of the live runtime (steps/s,
// MB/step, resident memory) come from the benchmark module under
// benchmark/, and codec rates from the root BenchmarkWire* rows, not from
// this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

// scales are the -scale values: smoke is the CI smoke sizing, and it also
// selects the smallest scenario-matrix grid.
var scales = map[string]experiments.Scale{
	"quick": experiments.Quick,
	"full":  experiments.Full,
	"smoke": {Steps: 10, Batch: 8, SmallBatch: 4, Examples: 300},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "guanyu-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("guanyu-bench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment id or 'all'")
		scaleName = fs.String("scale", "quick", "run sizes: quick | full | smoke (smoke also selects the smallest scenario-matrix cell)")
		seed      = fs.Uint64("seed", 42, "experiment seed")
		attacks   = fs.String("attacks", "", "scenario matrix only: comma-separated attack specs (default grid when empty)")
		rules     = fs.String("rules", "", "scenario matrix only: comma-separated gradient GAR names")
		faults    = fs.String("faults", "", "scenario matrix only: comma-separated fault profile specs")
		churn     = fs.String("churn", "", "scenario matrix only: semicolon-separated churn scenarios (none | crash | rolling | joinleave | kind:server@step,... schedules)")
		workers   = fs.Int("parallel", 0, "worker count for kernels and concurrent curves (0 = all CPUs, 1 = serial; results are identical at any setting)")
		compAxis  = fs.String("compress", "", "scenario matrix only: comma-separated compression specs (none | float32 | topk:k=F)")
		wireJSON  = fs.String("wire-json", "", "write the bandwidth experiment's wire rows to this file (commit as BENCH_wire.json) and exit")
		wireChk   = fs.String("wire-check", "", "re-measure the bandwidth wire rows and compare byte counts against this committed BENCH_wire.json, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetWorkers(*workers)
	scale, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown -scale %q (known: quick, full, smoke)", *scaleName)
	}
	smoke := *scaleName == "smoke"
	scale.Seed = *seed

	// The wire-row modes skip the convergence grid: byte counts are exact
	// and cheap, which is what makes them committable and CI-checkable.
	if *wireJSON != "" || *wireChk != "" {
		rows, err := experiments.WireRows(scale)
		if err != nil {
			return err
		}
		if *wireJSON != "" {
			data, err := experiments.WireBenchJSON(rows)
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
		if err := experiments.CheckWireBench(committed, rows); err != nil {
			return err
		}
		fmt.Fprintf(out, "%d wire rows match %s\n", len(rows), *wireChk)
		return nil
	}

	// -scale smoke and the grid-axis flags change the matrix experiment's
	// spec; runOne routes "matrix" through it so they apply under -exp all
	// too.
	customMatrix := smoke || *attacks != "" || *rules != "" || *faults != "" || *compAxis != "" || *churn != ""
	runOne := func(id string) error {
		if id == "matrix" && customMatrix {
			spec := experiments.DefaultMatrixSpec()
			if smoke {
				spec = experiments.SmokeMatrixSpec()
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
			r, err := experiments.Matrix(scale, spec)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r.Format())
			return nil
		}
		if err := experiments.Run(id, scale, out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return nil
	}

	if *exp != "all" {
		return runOne(*exp)
	}
	for _, id := range experiments.IDs() {
		if err := runOne(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
