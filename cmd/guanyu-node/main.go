// Command guanyu-node runs a single GuanYu node — one parameter server or
// one worker — as its own OS process over TCP, so a deployment is N
// independent processes exactly as on the paper's testbed. It is a thin
// flag layer over guanyu.RunNode.
//
// Every process deterministically regenerates the same synthetic workload
// and model initialisation from -seed, so no data distribution step is
// needed. A 6-server/6-worker deployment on one machine:
//
//	for i in 0 1 2 3 4 5; do
//	  guanyu-node -role server -id ps$i -listen 127.0.0.1:$((7000+i)) \
//	    -peers "$PEERS" -fservers 1 -fworkers 1 -steps 100 &
//	done
//	for j in 0 1 2 3 4 5; do
//	  guanyu-node -role worker -id wrk$j -listen 127.0.0.1:$((8000+j)) \
//	    -peers "$PEERS" -fservers 1 -fworkers 1 -steps 100 &
//	done
//
// where $PEERS lists every node as "id=host:port,...". Server ps0 prints
// the final test accuracy when it finishes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/guanyu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "guanyu-node:", err)
		os.Exit(1)
	}
}

// nodeFlags is one node's command line: the guanyu.NodeConfig it runs,
// plus the specs and paths run resolves around it.
type nodeFlags struct {
	guanyu.NodeConfig
	byzMode, faultSpec, ckptPath, ckptDir string
	ckptEvery                             int
}

func parseFlags(args []string) (*nodeFlags, error) {
	var c nodeFlags
	fs := flag.NewFlagSet("guanyu-node", flag.ContinueOnError)
	fs.StringVar(&c.Role, "role", "", "node role: server | worker")
	fs.StringVar(&c.ID, "id", "", "node id (ps<i> or wrk<j>)")
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:0", "listen address")
	peers := fs.String("peers", "", "comma-separated id=addr pairs for every node")
	fs.IntVar(&c.FServers, "fservers", 1, "declared Byzantine servers")
	fs.IntVar(&c.FWorkers, "fworkers", 1, "declared Byzantine workers")
	fs.IntVar(&c.Steps, "steps", 100, "learning steps")
	fs.IntVar(&c.Batch, "batch", 16, "mini-batch size")
	fs.Uint64Var(&c.Seed, "seed", 1, "deployment seed (shared by all nodes)")
	fs.IntVar(&c.Examples, "examples", 1200, "synthetic dataset size")
	fs.StringVar(&c.byzMode, "byzantine", "",
		fmt.Sprintf("make THIS node Byzantine, spec name[:k=v,...] of %v", guanyu.AttackNames()))
	fs.StringVar(&c.faultSpec, "faults", "none",
		fmt.Sprintf("fault profile for THIS node's sends, name[:k=v,...] of %v (same spec+seed on all nodes = cluster-wide schedule)", guanyu.FaultNames()))
	fs.StringVar(&c.ckptPath, "checkpoint", "", "server only: write the final model here")
	fs.StringVar(&c.ckptDir, "checkpoint-dir", "", "server only: persist protocol state (step, θ, horizon, momentum) into this directory every -checkpoint-every steps, atomically")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 10, "server only: checkpoint cadence in steps (with -checkpoint-dir)")
	fs.BoolVar(&c.Rejoin, "rejoin", false, "server only: restart from the newest -checkpoint-dir snapshot and catch up by adopting the median of a live peer quorum (how a crashed ps<i> re-enters a running deployment)")
	fs.DurationVar(&c.Timeout, "timeout", 5*time.Minute, "per-quorum timeout")
	parallel := fs.Int("parallel", 0, "kernel worker count for this node (0 = all CPUs, 1 = serial; results are identical at any setting)")
	fs.IntVar(&c.ShardSize, "shard", 0, "stream vectors as chunk frames of this many coordinates (0 = whole-vector framing; arm every node identically)")
	fs.StringVar(&c.Compression, "compress", "none", "wire compression for THIS node's sends: none | float32 | delta[:key=N] | topk:k=F (negotiated per connection; plain peers drop un-negotiated frames)")
	fs.StringVar(&c.Mailbox, "mailbox", "none", "bound THIS node's inbound mailbox per sender, none | policy[:cap=N] with policy backpressure | drop-newest | drop-oldest")
	fs.StringVar(&c.MetricsAddr, "metrics", "", "serve THIS node's /metrics + /healthz on this address for the process's lifetime (e.g. 127.0.0.1:9464, or :0 for an ephemeral port)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	guanyu.SetParallelism(*parallel)
	// Role, ID and self-in-peers are guanyu.RunNode's to check.
	var err error
	c.Peers, err = parsePeers(*peers)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// parsePeers parses "id=addr,id=addr" into a map.
func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-peers is required")
	}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=addr)", pair)
		}
		if _, dup := out[kv[0]]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", kv[0])
		}
		out[kv[0]] = kv[1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return out, nil
}

// mkAttack resolves the -byzantine spec through the shared attack
// registry; "signflip" keeps its historical node-level default scale.
func mkAttack(mode string, seed uint64) (guanyu.Attack, error) {
	switch mode {
	case "":
		return nil, nil
	case "signflip":
		return guanyu.SignFlip{Scale: 30}, nil
	default:
		mk, err := guanyu.AttackByName(mode, seed)
		if err != nil {
			return nil, fmt.Errorf("-byzantine: %w", err)
		}
		// Index 0 is correct here: seed already carries HashID(node id), so
		// stateful attacks stay disjoint across Byzantine processes.
		return mk(0), nil
	}
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.Attack, err = mkAttack(cfg.byzMode, cfg.Seed+guanyu.HashID(cfg.ID)); err != nil {
		return err
	}
	// The fault seed is the deployment seed, NOT offset per node: every
	// node derives the same cluster-wide fault schedule.
	if cfg.Faults, err = guanyu.FaultsByName(cfg.faultSpec, cfg.Seed); err != nil {
		return err
	}
	servers, workers, err := guanyu.SplitPeers(cfg.Peers)
	if err != nil {
		return err
	}
	cfg.OnListen = func(addr string) {
		fmt.Fprintf(out, "%s listening on %s (%d servers, %d workers)\n",
			cfg.ID, addr, len(servers), len(workers))
	}
	cfg.OnMetricsListen = func(addr string) {
		fmt.Fprintf(out, "%s metrics on http://%s/metrics\n", cfg.ID, addr)
	}
	if cfg.ckptDir != "" {
		cfg.Checkpoint = &guanyu.CheckpointSpec{Dir: cfg.ckptDir, Every: cfg.ckptEvery}
	}
	res, err := guanyu.RunNode(context.Background(), cfg.NodeConfig)
	if err != nil {
		return err
	}

	switch res.Role {
	case "server":
		fmt.Fprintf(out, "%s finished %d steps; local test accuracy %.4f\n",
			res.ID, res.Steps, res.Accuracy)
		if cfg.ckptPath != "" {
			f, err := os.Create(cfg.ckptPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := guanyu.SaveCheckpoint(f, res.Model, res.Steps); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s wrote checkpoint to %s\n", res.ID, cfg.ckptPath)
		}
	case "worker":
		fmt.Fprintf(out, "%s finished %d steps\n", res.ID, res.Steps)
	}
	return nil
}
