// Command guanyu-train runs one training deployment — vanilla or GuanYu,
// clean or under attack, simulated or live — and prints its convergence
// curve. It is a thin flag layer over the public guanyu deployment builder.
//
// Examples:
//
//	guanyu-train -mode guanyu -fworkers 5 -fservers 1 -steps 300
//	guanyu-train -mode vanilla -byz-workers 1 -attack random
//	guanyu-train -mode guanyu -byz-workers 5 -byz-servers 1 -attack signflip
//	guanyu-train -mode guanyu -runtime live -steps 50
//	guanyu-train -runtime live -metrics 127.0.0.1:9464 -mailbox drop-oldest
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/guanyu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "guanyu-train:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("guanyu-train", flag.ContinueOnError)
	var (
		mode       = fs.String("mode", "guanyu", "deployment: vanilla | guanyu")
		runtime    = fs.String("runtime", "sim", "runtime: sim | live")
		steps      = fs.Int("steps", 200, "number of model updates")
		batch      = fs.Int("batch", 16, "mini-batch size")
		rule       = fs.String("rule", "", "gradient aggregation rule (default multi-krum, or mean in vanilla mode)")
		fWorkers   = fs.Int("fworkers", 5, "declared Byzantine workers (guanyu mode)")
		fServers   = fs.Int("fservers", 1, "declared Byzantine servers (guanyu mode)")
		byzWorkers = fs.Int("byz-workers", 0, "actual Byzantine workers")
		byzServers = fs.Int("byz-servers", 0, "actual Byzantine servers")
		attackName = fs.String("attack", "random",
			fmt.Sprintf("Byzantine behaviour spec, name[:k=v,...] of %v (e.g. alie:z=1.2)", guanyu.AttackNames()))
		faultSpec = fs.String("faults", "none",
			fmt.Sprintf("network fault profile spec, name[:k=v,...] of %v (e.g. drop:p=0.05)", guanyu.FaultNames()))
		examples  = fs.Int("examples", 1500, "synthetic dataset size")
		seed      = fs.Uint64("seed", 1, "run seed")
		evalEvery = fs.Int("eval-every", 10, "accuracy sampling period")
		parallel  = fs.Int("parallel", 0, "kernel worker count (0 = all CPUs, 1 = serial; results are identical at any setting)")
		shard     = fs.Int("shard", 0, "live runtime only: stream vectors as chunk frames of this many coordinates (0 = whole-vector framing; results are identical)")
		comp      = fs.String("compress", "none", "wire compression for honest traffic: none | float32 | topk:k=F")
		mbox      = fs.String("mailbox", "none", "live runtime only: bound inbound mailboxes per sender, none | policy[:cap=N] with policy backpressure | drop-newest | drop-oldest")
		ckptDir   = fs.String("checkpoint-dir", "", "live runtime only: honest servers persist protocol state into this directory every -checkpoint-every steps")
		ckptEvr   = fs.Int("checkpoint-every", 10, "live runtime only: checkpoint cadence in steps (with -checkpoint-dir)")
		rejoin    = fs.String("rejoin", "", "live runtime only: kill/restart cycle as server@step (e.g. 0@25): that honest server is killed once it completes the step and rejoins from its newest -checkpoint-dir snapshot via median catch-up")
		metrics   = fs.String("metrics", "", "live runtime only: serve /metrics + /healthz on this address for the run's duration (e.g. 127.0.0.1:9464)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	guanyu.SetParallelism(*parallel)

	opts := []guanyu.Option{
		guanyu.WithWorkload(guanyu.ImageWorkload(*examples, *seed)),
		guanyu.WithSteps(*steps),
		guanyu.WithBatch(*batch),
		guanyu.WithSeed(*seed),
	}
	if *evalEvery > 0 {
		opts = append(opts, guanyu.WithEval(*evalEvery, 0))
	}
	switch *mode {
	case "vanilla":
		opts = append(opts, guanyu.WithVanilla(), guanyu.WithOptimizedRuntime(),
			guanyu.WithWorkers(guanyu.PaperWorkers, 0))
	case "guanyu":
		opts = append(opts,
			guanyu.WithServers(guanyu.PaperServers, *fServers),
			guanyu.WithWorkers(guanyu.PaperWorkers, *fWorkers))
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	switch *runtime {
	case "sim":
		opts = append(opts, guanyu.WithRuntime(guanyu.Sim))
	case "live":
		opts = append(opts, guanyu.WithRuntime(guanyu.Live))
	default:
		return fmt.Errorf("unknown runtime %q", *runtime)
	}
	if *rule != "" {
		opts = append(opts, guanyu.WithRule(*rule))
	}
	if *shard > 0 {
		opts = append(opts, guanyu.WithShardSize(*shard))
	}
	if *comp != "" {
		opts = append(opts, guanyu.WithCompression(*comp))
	}
	if *mbox != "" {
		opts = append(opts, guanyu.WithMailboxSpec(*mbox))
	}
	if *ckptDir != "" {
		opts = append(opts, guanyu.WithCheckpointDir(*ckptDir, *ckptEvr))
	}
	if *rejoin != "" {
		var server, step int
		if _, err := fmt.Sscanf(*rejoin, "%d@%d", &server, &step); err != nil {
			return fmt.Errorf("-rejoin: want server@step, got %q", *rejoin)
		}
		opts = append(opts, guanyu.WithRejoin(server, step))
	}
	if *metrics != "" {
		opts = append(opts, guanyu.WithMetricsAddr(*metrics, func(addr string) {
			fmt.Fprintf(out, "metrics listening on %s\n", addr)
		}))
	}

	mk, err := guanyu.AttackByName(*attackName, *seed)
	if err != nil {
		return err
	}
	if *byzWorkers > 0 {
		opts = append(opts, guanyu.WithAttackedWorkers(*byzWorkers, mk))
	}
	if *byzServers > 0 {
		// Servers run the named behaviour directly; offset indices keep
		// their generators disjoint from the Byzantine workers'.
		opts = append(opts, guanyu.WithAttackedServers(*byzServers, func(i int) guanyu.Attack {
			return mk(i + 100)
		}))
	}
	faults, err := guanyu.FaultsByName(*faultSpec, *seed)
	if err != nil {
		return err
	}
	opts = append(opts, guanyu.WithFaults(faults))

	d, err := guanyu.New(opts...)
	if err != nil {
		return err
	}
	res, err := d.Run(context.Background())
	if err != nil {
		return err
	}
	if res.Curve != nil {
		fmt.Fprint(out, res.CurveTable(
			fmt.Sprintf("%s: accuracy vs updates", res.Curve.Name), false))
	}
	fmt.Fprintf(out, "\nfinal accuracy: %.4f\n", res.FinalAccuracy)
	switch res.Runtime {
	case "sim":
		fmt.Fprintf(out, "virtual time:   %.2f s (%.3f updates/s)\n",
			res.VirtualTime, res.Curve.Throughput())
	case "live":
		fmt.Fprintf(out, "wall time:      %v (%d honest servers)\n",
			res.WallTime.Round(time.Millisecond), len(res.ServerParams))
		if *rejoin != "" {
			verdict := "NO (the run outran the kill; lower -checkpoint-every or kill later)"
			if res.ChurnRestarted {
				verdict = "yes"
			}
			fmt.Fprintf(out, "restarted via checkpoint+rejoin: %s\n", verdict)
		}
	}
	return nil
}
