package guanyu

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	igar "repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func serverID(i int) string { return cluster.ServerID(i) }
func workerID(j int) string { return cluster.WorkerID(j) }

// CheckpointSpec names a server's checkpoint directory and cadence (see
// NodeConfig.Checkpoint and WithCheckpointDir).
type CheckpointSpec = cluster.CheckpointSpec

// NodeConfig describes ONE node of a multi-process deployment: a single
// parameter server or worker running in its own OS process over TCP, so a
// full deployment is N independent processes exactly as on the paper's
// testbed. Every process deterministically regenerates the same workload
// and model initialisation from Seed, so no data distribution step is
// needed.
type NodeConfig struct {
	// Role is "server" or "worker".
	Role string
	// ID is this node's network identifier; the naming convention ps<i> /
	// wrk<j> (see ServerID, WorkerID) assigns roles within Peers.
	ID string
	// Listen is the address to bind ("127.0.0.1:0" for an ephemeral port).
	Listen string
	// Peers maps every node ID of the deployment — this one included — to
	// its address.
	Peers map[string]string
	// FServers and FWorkers are the declared Byzantine counts.
	FServers, FWorkers int
	// Steps and Batch drive training.
	Steps, Batch int
	// Workload overrides the default workload; when nil every process
	// regenerates ImageWorkload(Examples, Seed).
	Workload *Workload
	// Examples sizes the default synthetic workload (default 1200).
	Examples int
	// Seed is the deployment seed, shared by all processes.
	Seed uint64
	// Attack, when non-nil, makes THIS node Byzantine. Omniscient attacks
	// degrade to their local-knowledge fallback here: an adversary spanning
	// OS processes would need its own covert channel, which this runtime
	// does not model (the in-process runtimes do; see WithFaults/Live).
	Attack Attack
	// Faults injects seeded network faults into THIS node's send path
	// (zero value: none). Arm all nodes with the same profile and seed for
	// a cluster-wide schedule. With a ShardSize set, faults hit each chunk
	// frame independently.
	Faults FaultProfile
	// ShardSize, when positive, streams this node's outbound vectors as
	// chunk frames of that many coordinates and aggregates inbound shards
	// incrementally (bit-identical to whole-vector framing; see
	// WithShardSize). Nodes with and without sharding interoperate, so a
	// deployment may mix — but arm every node identically to get the
	// memory and pipelining benefit cluster-wide.
	ShardSize int
	// Compression selects this node's outbound wire compression by spec
	// string: "none" (default), "float32", "delta[:key=N]" or "topk:k=F"
	// (see WithCompression). Negotiated per connection via the hello
	// capability mask, so compressing and plain nodes interoperate: a peer
	// that did not announce a scheme has this node's compressed frames
	// dropped as un-negotiated, never misdecoded. Composes with ShardSize —
	// each chunk frame is compressed as its own stream.
	Compression string
	// Mailbox bounds this node's inbound mailbox per sender and routes its
	// sends through per-link courier goroutines, by spec string: "none"
	// (default, unbounded) or "policy[:cap=N]" with policy ∈ {backpressure,
	// drop-newest, drop-oldest} (see WithMailbox). The bound is this node's
	// own defense — a spraying peer occupies at most cap frames here — so
	// arming nodes individually is meaningful, but arm every node to bound
	// the whole deployment.
	Mailbox string
	// Checkpoint, when non-nil, makes a server persist its protocol state
	// — step counter, parameters, collector horizon, momentum — into
	// Checkpoint.Dir every Checkpoint.Every steps, atomically
	// (write-then-rename, one file per node ID). Servers only.
	Checkpoint *CheckpointSpec
	// Rejoin, with Checkpoint set, restarts this server elastically: the
	// newest on-disk snapshot is restored before the loop starts, and the
	// node catches up by adopting the coordinate-wise median of a live
	// peer quorum at whatever step the cluster has reached, falling back
	// to the plain restored state if no quorum materialises within
	// Timeout. This is how a crashed ps<i> process re-enters a running
	// deployment under the same ID. Servers only.
	Rejoin bool
	// Timeout bounds each quorum wait (default 5 minutes).
	Timeout time.Duration
	// LR overrides the learning-rate schedule (servers only; default
	// InverseTimeLR(0.05, 300)).
	LR Schedule
	// OnListen, when non-nil, is invoked with the bound address once the
	// node is reachable — the hook deployment scripts use to publish
	// address books.
	OnListen func(addr string)
	// MetricsAddr, when non-empty, starts a /metrics + /healthz HTTP
	// listener on that address for this node's lifetime: live Prometheus
	// counters for every hardening drop class plus a quorum-liveness
	// health verdict (see WithMetricsAddr for the exposition). Use ":0"
	// for an ephemeral port; OnMetricsListen reports the bound address.
	MetricsAddr string
	// OnMetricsListen, when non-nil, receives the metrics listener's
	// bound address once it is up.
	OnMetricsListen func(addr string)
}

// NodeResult is the outcome of one node's run.
type NodeResult struct {
	// ID and Role echo the configuration.
	ID, Role string
	// Steps is the number of learning steps completed.
	Steps int
	// Theta is the server's final parameter vector (nil for workers).
	Theta []float64
	// Model is the evaluation model carrying Theta (nil for workers).
	Model *Model
	// Accuracy is Model's local test accuracy (servers only).
	Accuracy float64
}

// SplitPeers partitions a deployment address book into server and worker
// IDs by the ps*/wrk* naming convention, sorted for determinism.
func SplitPeers(peers map[string]string) (servers, workers []string, err error) {
	for id := range peers {
		switch {
		case strings.HasPrefix(id, "ps"):
			servers = append(servers, id)
		case strings.HasPrefix(id, "wrk"):
			workers = append(workers, id)
		default:
			return nil, nil, fmt.Errorf("guanyu: peer id %q matches neither ps* nor wrk*", id)
		}
	}
	sort.Strings(servers)
	sort.Strings(workers)
	return servers, workers, nil
}

// RunNode executes one node of a multi-process TCP deployment to
// completion. Cancelling ctx tears down the node's sockets, unblocking its
// quorum waits.
func RunNode(ctx context.Context, cfg NodeConfig) (*NodeResult, error) {
	if cfg.Role != "server" && cfg.Role != "worker" {
		return nil, fmt.Errorf("guanyu: node role must be server or worker, got %q", cfg.Role)
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("guanyu: node ID is required")
	}
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("guanyu: peers must include this node's id %q", cfg.ID)
	}
	if cfg.Steps <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("guanyu: node Steps and Batch must be positive (got %d, %d)",
			cfg.Steps, cfg.Batch)
	}
	if cfg.Role == "worker" && (cfg.Checkpoint != nil || cfg.Rejoin) {
		return nil, fmt.Errorf("guanyu: checkpoint/rejoin are server-side (workers are stateless; restart them cold)")
	}
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Rejoin {
		if cfg.Checkpoint == nil {
			return nil, fmt.Errorf("guanyu: Rejoin requires Checkpoint: the restart restores the newest on-disk snapshot")
		}
		if cfg.Attack != nil {
			return nil, fmt.Errorf("guanyu: Rejoin is an honest-recovery path; a Byzantine node needs no catch-up")
		}
	}
	servers, workers, err := SplitPeers(cfg.Peers)
	if err != nil {
		return nil, err
	}
	// Both roles run the default quorums; a process knows no other node's
	// attack, so no attacked indices are passed.
	if err := igar.CheckRole("server", len(servers), cfg.FServers, 0, nil); err != nil {
		return nil, err
	}
	if err := igar.CheckRole("worker", len(workers), cfg.FWorkers, 0, nil); err != nil {
		return nil, err
	}

	w := cfg.Workload
	if w == nil {
		examples := cfg.Examples
		if examples <= 0 {
			examples = 1200
		}
		wl := ImageWorkload(examples, cfg.Seed)
		w = &wl
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 5 * time.Minute
	}
	lr := cfg.LR
	if lr == nil {
		lr = InverseTimeLR(0.05, 300)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}

	comp, err := ParseCompression(cfg.Compression)
	if err != nil {
		return nil, err
	}
	mbox, err := ParseMailbox(cfg.Mailbox)
	if err != nil {
		return nil, err
	}

	// The node's live ops surface: one registry handle that the transport,
	// couriers and the node loop all publish into, optionally exposed over
	// HTTP for the process's lifetime.
	reg := metrics.NewRegistry()
	handle := reg.Node(cfg.ID)
	node, err := cluster.OpenTCPNode(cfg.ID, listen, cfg.Peers, comp, w.Model.ParamCount(), mbox, handle)
	if err != nil {
		return nil, err
	}
	defer node.Close()
	if cfg.MetricsAddr != "" {
		srv, err := metrics.Serve(cfg.MetricsAddr, reg, metrics.DefaultStallAfter)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		if cfg.OnMetricsListen != nil {
			cfg.OnMetricsListen(srv.Addr())
		}
	}
	// The same stack the in-process launcher gives its honest nodes. Closing
	// it first flushes reorder-held, delay-spiked and courier-queued frames
	// before the sockets go away: this process may be the last sender its
	// peers' final quorums are waiting on.
	ep := cluster.StackEndpoint(node, transport.NewFaultInjector(cfg.Faults), mbox, handle)
	defer ep.Close()
	if cfg.OnListen != nil {
		cfg.OnListen(node.Addr())
	}
	stop := context.AfterFunc(ctx, func() { node.Close() })
	defer stop()

	res := &NodeResult{ID: cfg.ID, Role: cfg.Role, Steps: cfg.Steps}
	switch cfg.Role {
	case "server":
		peersOnly := make([]string, 0, len(servers)-1)
		for _, id := range servers {
			if id != cfg.ID {
				peersOnly = append(peersOnly, id)
			}
		}
		scfg := cluster.ServerConfig{
			ID: cfg.ID, Workers: workers, Peers: peersOnly,
			Init:            w.Model.ParamVector(),
			GradRule:        igar.MultiKrum{F: cfg.FWorkers},
			ParamRule:       igar.Median{},
			QuorumGradients: igar.MinQuorum(cfg.FWorkers),
			QuorumParams:    igar.MinQuorum(cfg.FServers),
			Steps:           cfg.Steps,
			LR:              lr,
			Timeout:         timeout,
			Attack:          cfg.Attack,
			ShardSize:       cfg.ShardSize,
			Metrics:         handle,
		}
		if cfg.Attack == nil {
			scfg.Checkpoint = cfg.Checkpoint
		}
		if cfg.Rejoin {
			ckpt, err := cluster.LoadCheckpoint(cfg.Checkpoint.Dir, cfg.ID)
			if err != nil {
				return nil, fmt.Errorf("guanyu: node rejoin: %w", err)
			}
			scfg.Restore = &ckpt
			scfg.Rejoin = true
		}
		theta, err := cluster.RunServer(ep, scfg)
		if err != nil {
			return nil, wrapCancelled(ctx, err)
		}
		eval := w.Model.Clone()
		if err := eval.SetParamVector(theta); err != nil {
			return nil, err
		}
		res.Theta = theta
		res.Model = eval
		if w.Test != nil {
			res.Accuracy = Accuracy(eval, w.Test.X, w.Test.Labels)
		}
	case "worker":
		err := cluster.RunWorker(ep, cluster.WorkerConfig{
			ID: cfg.ID, Servers: servers,
			Model:        w.Model.Clone(),
			Sampler:      dataset.NewSampler(w.Train, tensor.NewRNG(cfg.Seed^hashID(cfg.ID))),
			Batch:        cfg.Batch,
			ParamRule:    igar.Median{},
			QuorumParams: igar.MinQuorum(cfg.FServers),
			Steps:        cfg.Steps,
			Timeout:      timeout,
			Attack:       cfg.Attack,
			ShardSize:    cfg.ShardSize,
			Metrics:      handle,
		})
		if err != nil {
			return nil, wrapCancelled(ctx, err)
		}
	}
	return res, nil
}

// wrapCancelled prefers the context's error over the node error it caused.
func wrapCancelled(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("guanyu: node cancelled: %w", cerr)
	}
	return err
}

// HashID derives a per-node seed offset from its name (FNV-1a), so
// deployment tools arm per-node generators the same way the node runtime
// does.
func HashID(s string) uint64 { return hashID(s) }

func hashID(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
