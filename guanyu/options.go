package guanyu

import (
	"fmt"
	"time"
)

// Option configures a Deployment under construction. Options report
// malformed arguments immediately; cross-field validation happens in New.
type Option func(*Deployment) error

// WithWorkload sets the model template and datasets. Required.
func WithWorkload(w Workload) Option {
	return func(d *Deployment) error {
		d.workload = w
		return nil
	}
}

// WithServers sets the parameter-server population n and the declared
// Byzantine count f. The theory requires n ≥ 3f+3; the paper's deployment
// is (6, 1).
func WithServers(n, f int) Option {
	return func(d *Deployment) error {
		d.numServers, d.fServers = n, f
		d.serversSet = true
		return nil
	}
}

// WithWorkers sets the worker population n̄ and the declared Byzantine
// count f̄. The theory requires n̄ ≥ 3f̄+3; the paper's deployment is (18, 5).
func WithWorkers(n, f int) Option {
	return func(d *Deployment) error {
		d.numWorkers, d.fWorkers = n, f
		return nil
	}
}

// WithQuorums overrides the quorums q (parameter vectors) and qBar
// (gradients). Zero keeps the legal minimum 2f+3. Larger quorums wait for
// more arrivals per step — slower but lower-variance.
func WithQuorums(q, qBar int) Option {
	return func(d *Deployment) error {
		d.qServers, d.qWorkers = q, qBar
		return nil
	}
}

// WithRule selects the gradient aggregation rule by registry name (the
// paper's F; default "multi-krum", or "mean" in vanilla mode). New refuses
// an unknown name with the list of known ones.
func WithRule(name string) Option {
	return func(d *Deployment) error {
		if name == "" {
			return fmt.Errorf("WithRule: empty rule name")
		}
		d.ruleName = name
		return nil
	}
}

// WithParamRule selects the parameter aggregation rule by registry name
// (the paper's M; default "coordinate-median").
func WithParamRule(name string) Option {
	return func(d *Deployment) error {
		if name == "" {
			return fmt.Errorf("WithParamRule: empty rule name")
		}
		d.paramRuleName = name
		return nil
	}
}

// WithAttackedWorkers makes workers 0..count-1 actually Byzantine, each
// running the behaviour returned by mk (called once per node so stateful
// attacks don't share generators).
func WithAttackedWorkers(count int, mk func(i int) Attack) Option {
	return func(d *Deployment) error {
		if mk == nil {
			return fmt.Errorf("WithAttackedWorkers: nil attack factory")
		}
		if d.workerAttacks == nil {
			d.workerAttacks = make(map[int]Attack, count)
		}
		for i := 0; i < count; i++ {
			d.workerAttacks[i] = mk(i)
		}
		return nil
	}
}

// WithAttackedServers makes servers 0..count-1 actually Byzantine.
func WithAttackedServers(count int, mk func(i int) Attack) Option {
	return func(d *Deployment) error {
		if mk == nil {
			return fmt.Errorf("WithAttackedServers: nil attack factory")
		}
		if d.serverAttacks == nil {
			d.serverAttacks = make(map[int]Attack, count)
		}
		for i := 0; i < count; i++ {
			d.serverAttacks[i] = mk(i)
		}
		return nil
	}
}

// WithWorkerAttack makes one specific worker Byzantine.
func WithWorkerAttack(index int, a Attack) Option {
	return func(d *Deployment) error {
		if a == nil {
			return fmt.Errorf("WithWorkerAttack: nil attack")
		}
		if d.workerAttacks == nil {
			d.workerAttacks = make(map[int]Attack, 1)
		}
		d.workerAttacks[index] = a
		return nil
	}
}

// WithServerAttack makes one specific server Byzantine.
func WithServerAttack(index int, a Attack) Option {
	return func(d *Deployment) error {
		if a == nil {
			return fmt.Errorf("WithServerAttack: nil attack")
		}
		if d.serverAttacks == nil {
			d.serverAttacks = make(map[int]Attack, 1)
		}
		d.serverAttacks[index] = a
		return nil
	}
}

// WithSteps sets the number of learning steps.
func WithSteps(n int) Option {
	return func(d *Deployment) error {
		d.steps = n
		return nil
	}
}

// WithBatch sets the mini-batch size.
func WithBatch(n int) Option {
	return func(d *Deployment) error {
		d.batch = n
		return nil
	}
}

// WithLR installs a learning-rate schedule (default: InverseTimeLR per
// runtime; see Schedule).
func WithLR(s Schedule) Option {
	return func(d *Deployment) error {
		d.lr = s
		return nil
	}
}

// WithMomentum enables heavy-ball momentum β on server updates (an
// extension beyond the paper's plain SGD).
func WithMomentum(beta float64) Option {
	return func(d *Deployment) error {
		if beta < 0 || beta >= 1 {
			return fmt.Errorf("WithMomentum: β must be in [0, 1), got %v", beta)
		}
		d.momentum = beta
		return nil
	}
}

// WithParallelism pins the worker count of the shared kernel pool for this
// deployment's runs: Run applies it for the duration and restores the
// previous process-wide setting afterwards (see SetParallelism). n ≤ 0
// selects the default (runtime.NumCPU()); n = 1 reproduces the serial
// numerics exactly — parallelism never changes results, only wall-clock.
func WithParallelism(n int) Option {
	return func(d *Deployment) error {
		d.parallelism = n
		d.parallelismSet = true
		return nil
	}
}

// WithSeed seeds every generator in the run; equal seeds reproduce Sim runs
// bit-for-bit.
func WithSeed(seed uint64) Option {
	return func(d *Deployment) error {
		d.seed = seed
		return nil
	}
}

// WithVanilla selects the unreplicated baseline: one parameter server, mean
// aggregation, no Byzantine filtering ("vanilla GuanYu" in the paper).
// Simulation-only.
func WithVanilla() Option {
	return func(d *Deployment) error {
		d.vanilla = true
		return nil
	}
}

// WithOptimizedRuntime models the vanilla TensorFlow distributed runtime in
// the simulator's cost model: serialization overhead is absorbed by the
// framework. Combine with WithVanilla for the paper's "vanilla TF"
// baseline.
func WithOptimizedRuntime() Option {
	return func(d *Deployment) error {
		d.optimized = true
		return nil
	}
}

// WithRuntime selects the runner executing the deployment: Sim (default)
// or Live.
func WithRuntime(r Runner) Option {
	return func(d *Deployment) error {
		if r == nil {
			return fmt.Errorf("WithRuntime: nil runner")
		}
		d.runtime = r
		return nil
	}
}

// WithTCPTransport makes the Live runtime exchange messages over real
// loopback TCP sockets (binary-framed, hello-authenticated) instead of
// in-process channels.
func WithTCPTransport() Option {
	return func(d *Deployment) error {
		d.tcp = true
		return nil
	}
}

// WithShardSize streams every vector the Live runtime ships as chunk
// frames of n coordinates, aggregated incrementally as each shard's quorum
// fills (coordinate-wise rules shard-by-shard; multi-krum via a streaming
// two-pass distance fold). Results are bit-identical to whole-vector
// framing at any shard size and parallelism, and aggregation overlaps the
// network receive. Receive buffering drops from O(n·d) to O(q·shard) for
// coordinate-wise rules (coordinate-median, trimmed-mean, mean — each
// shard is aggregated and released as it completes); multi-krum's
// streamer must retain its q pinned inputs until the post-selection mean,
// so its resident floor is O(q·d) — still the n→q buffering drop plus the
// overlapped O(q²·d) distance pass, but not the coordinate-wise bound.
// n ≤ 0 or ≥ the model dimension keeps whole-vector framing. Live-only:
// the simulator prices the wire in its cost model rather than framing real
// traffic.
func WithShardSize(n int) Option {
	return func(d *Deployment) error {
		if n < 0 {
			n = 0
		}
		d.shardSize = n
		return nil
	}
}

// WithCompression selects the wire compression scheme for honest traffic by
// spec string: "none" (default), "float32", "delta" (or "delta:key=N" for
// the keyframe period), or "topk:k=F" (top-k sparsification keeping fraction
// F of coordinates, with error-feedback accumulation at the sender). Applies
// to both runtimes: the Live transports compress real frames (negotiated
// per connection on TCP), and the simulator round-trips every honest payload
// through the identical codec so its convergence curves reflect the lossy
// wire — and its cost model charges the smaller frames. Byzantine traffic is
// never compressed (the adversary's covert network is ideal by assumption).
func WithCompression(spec string) Option {
	return func(d *Deployment) error {
		cfg, err := ParseCompression(spec)
		if err != nil {
			return err
		}
		d.compression = cfg
		return nil
	}
}

// WithCheckpointDir makes every honest server of the Live runtime persist
// its protocol state — step counter, parameters, collector horizon,
// momentum — into dir every `every` steps, atomically (write-then-rename,
// one file per server ID; see the cluster checkpoint codec). The snapshots
// are what WithRejoin and NodeConfig.Rejoin restart from.
func WithCheckpointDir(dir string, every int) Option {
	return func(d *Deployment) error {
		d.checkpointDir, d.checkpointEvery = dir, every
		return CheckpointSpec{Dir: dir, Every: every}.Validate()
	}
}

// WithRejoin arms the Live in-process runtime's crash-recovery cycle: the
// given honest server is killed mid-protocol once it completes killAtStep,
// then restarts under the same ID from its newest WithCheckpointDir
// snapshot and catches up by adopting the coordinate-wise median of a live
// peer quorum (elastic rejoin — the contraction argument's recovery path).
// The rest of the deployment rides the outage on its quorum slack, so
// declare quorums with room (e.g. f=0 with n=6 leaves q=3 of 5 live).
// Result.ChurnRestarted reports whether the kill actually fired.
func WithRejoin(server, killAtStep int) Option {
	return func(d *Deployment) error {
		d.rejoinServer, d.rejoinKill, d.rejoinSet = server, killAtStep, true
		return nil
	}
}

// WithTimeout bounds each quorum wait in the Live runtime (default 30 s;
// negative waits forever — the faithful asynchronous setting).
func WithTimeout(t time.Duration) Option {
	return func(d *Deployment) error {
		d.timeout = t
		return nil
	}
}

// WithMetricsAddr starts a /metrics + /healthz HTTP listener on addr for
// the duration of the Live run: GET /metrics returns every node's live
// hardening counters in Prometheus text format (guanyu_*_total families,
// plus guanyu_node_info carrying each TCP node's listen address), and GET
// /healthz reports 200 while every node keeps making quorum progress, 503
// once one stalls. Use ":0" (or "127.0.0.1:0") to bind an ephemeral port;
// the optional onListen callback receives the bound address once the
// listener is up, before the first node starts.
func WithMetricsAddr(addr string, onListen ...func(addr string)) Option {
	return func(d *Deployment) error {
		if addr == "" {
			return fmt.Errorf("guanyu: empty metrics address")
		}
		d.metricsAddr = addr
		if len(onListen) > 0 {
			d.onMetricsListen = onListen[0]
		}
		return nil
	}
}

// WithDelay injects per-message delivery delays into the Live in-process
// network (see NewLatencyModel for a realistic generator). Refused under
// Sim and under WithTCPTransport, where nothing would apply it.
func WithDelay(f DelayFunc) Option {
	return func(d *Deployment) error {
		d.delay = f
		return nil
	}
}

// WithSuspicion shares an accountability accumulator across the Live
// runtime's honest servers: every gradient exclusion by a selective rule
// (e.g. multi-krum) is recorded per sender, surfacing the actually
// Byzantine workers (see Suspicion.Ranking).
func WithSuspicion(s *Suspicion) Option {
	return func(d *Deployment) error {
		d.suspicion = s
		return nil
	}
}

// WithEval controls accuracy sampling in the simulator: every `every`
// updates, on at most `examples` test examples (0 examples = 256).
func WithEval(every, examples int) Option {
	return func(d *Deployment) error {
		if every <= 0 {
			return fmt.Errorf("WithEval: period must be positive, got %d", every)
		}
		d.evalEvery = every
		d.evalExamples = examples
		return nil
	}
}

// WithAlignmentProbe enables the paper's Table-2 probe in the simulator:
// every `every` updates from update `after` on, record the cosine alignment
// between honest servers' parameter vectors.
func WithAlignmentProbe(every, after int) Option {
	return func(d *Deployment) error {
		if every <= 0 {
			return fmt.Errorf("WithAlignmentProbe: period must be positive, got %d", every)
		}
		d.alignEvery = every
		d.alignAfter = after
		return nil
	}
}

// WithoutServerExchange disables protocol phase 3 (the inter-server
// contraction round) — the ablation showing why the round is load-bearing.
func WithoutServerExchange() Option {
	return func(d *Deployment) error {
		d.noExchange = true
		return nil
	}
}
