// Command benchmark is the repository's performance baseline: the paper's
// deployment shape (6 servers, 18 workers, Multi-Krum + coordinate median,
// minimum quorums) on four workloads that stress different layers, measured
// end to end with tracing off and layer by layer in a separate traced run.
//
// One run of one workload — what BENCHMARK.json's command does, through
// run.sh — prints every metric by name with its unit, then a single JSON
// result line:
//
//	bash benchmark/run.sh --workload wide_honest_tcp --seed 1 --seconds 26 --trace 0
//
// Without --workload the program runs the whole suite (every workload in a
// fresh child process, repeats interleaved, one traced run each) and writes
// a results file; -compare judges two such files. See README.md for the
// metric definitions and how the layers are expected to interact.
//
// The benchmark measures every layer from outside, through its public
// functions; it changes nothing it measures and claims no gain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/guanyu"
)

// maxRunWall is the longest any single run may take, by contract with the
// driver; the watchdog keeps a margin under it.
const maxRunWall = 180 * time.Second

// defaultProcs is how many processors a measured run uses: one. The box this
// baseline lives on is a 2-vCPU guest whose host hands it anything between
// one and two cores from one minute to the next (two spinning threads each
// run at full or at half speed, one spinning thread always at full speed), so
// a run that keeps both vCPUs busy measures the host's other guests: its
// steps_per_s moved by 50 % between sittings of the same code, and by 25 %
// inside one. On one processor the same run repeats to a few per cent, and
// what it reports — steps per second of one core, i.e. the CPU a step costs —
// is what every optimisation the ROADMAP lists would move. What one processor
// cannot show is a gain in parallel scaling; measure that with -procs N on a
// machine that owns its cores.
const defaultProcs = 1

// watchdogLimit is how long a run asked to measure for seconds may take
// before it is stopped: four times its expected wall, capped.
func watchdogLimit(seconds float64) time.Duration {
	limit := time.Duration(4 * (seconds + 10) * float64(time.Second))
	return min(limit, maxRunWall-20*time.Second)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result line (empty: run the suite)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		procs    = flag.Int("procs", defaultProcs, "GOMAXPROCS and kernel parallelism of a run (see defaultProcs)")
		quick    = flag.Bool("quick", false, "20-step variants, for tests only; never comparable with full runs")
		outDir   = flag.String("out", "benchmark/out", "directory for span dumps, scratch files and suite results")
		only     = flag.String("only", "", "suite: run only this workload")
		repeats  = flag.Int("repeats", 3, "suite: untraced repeats per workload")
		compare  = flag.Bool("compare", false, "compare two suite result files given as arguments: baseline then candidate")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as declared by this program and exit")
	)
	flag.Parse()

	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files: baseline candidate"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload == "":
		err := runSuite(suiteConfig{
			only: *only, repeats: *repeats, seed: *seed, seconds: *seconds, procs: *procs, quick: *quick, outDir: *outDir,
		})
		if err != nil {
			fatal(err)
		}
	default:
		s, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if *quick {
			s = s.quick()
		}
		if *procs < 1 {
			fatal(fmt.Errorf("-procs must be at least 1"))
		}
		runtime.GOMAXPROCS(*procs)
		guanyu.SetParallelism(*procs)
		if err := pinToCPUs(*procs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: not pinned, expect noisier clocks:", err)
		}
		limit := watchdogLimit(*seconds)
		// A node loop that ignores cancellation cannot be waited for: past
		// the limit plus a grace period the process ends without a result.
		time.AfterFunc(limit+10*time.Second, func() {
			fatal(fmt.Errorf("watchdog: %s still running after %v", s.name, limit+10*time.Second))
		})
		ctx, cancel := context.WithTimeout(context.Background(), limit)
		defer cancel()
		res, err := runWorkload(ctx, runConfig{
			spec: s, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, log: os.Stdout,
			setupRepeats: defaultSetupRepeats, unitTime: defaultUnitTime,
		})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
