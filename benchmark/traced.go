package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/guanyu"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// tracedRunner returns a runner that executes the same deployment as
// runFacade but assembled here from the layers' public functions, with a
// benchmark-owned wrapper around every endpoint and rule feeding rec.
func tracedRunner(rec *recorder) runner {
	return func(ctx context.Context, s spec, w guanyu.Workload, seed uint64, round int) (*roundResult, error) {
		var out *roundResult
		m, err := measure(func() (err error) {
			if s.sim {
				out, err = runTracedSim(ctx, s, w, seed, round, rec)
			} else {
				out, err = runTracedTCP(ctx, s, w, seed, round, rec)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out.measurement = m
		return out, nil
	}
}

func rules() (grad, param gar.Rule) {
	return gar.MultiKrum{F: fWorkers}, gar.Median{}
}

// attackMaps arms workers/servers 0..n-1 the way WithAttackedWorkers does.
func (s spec) attackMaps(seed uint64) (workers, servers map[int]guanyu.Attack, err error) {
	alie, equivocate, err := s.attacks(seed)
	if err != nil {
		return nil, nil, err
	}
	workers, servers = map[int]guanyu.Attack{}, map[int]guanyu.Attack{}
	for j := 0; j < s.byzWorkers; j++ {
		workers[j] = alie(j)
	}
	for i := 0; i < s.byzServers; i++ {
		servers[i] = equivocate(i)
	}
	return workers, servers, nil
}

// runTracedSim is guanyu.simRunner.Run with traced rules. The simulator's
// cost model prices an aggregation by the rule's concrete type, so a wrapped
// rule changes the virtual-time schedule: a traced sim round's model differs
// from the untraced one's. Its spans are valid; its outputs are not compared.
func runTracedSim(ctx context.Context, s spec, w guanyu.Workload, seed uint64, round int, rec *recorder) (*roundResult, error) {
	workerAttacks, serverAttacks, err := s.attackMaps(seed)
	if err != nil {
		return nil, err
	}
	grad, param := rules()
	cfg := core.Config{
		Mode:  core.ModeGuanYu,
		Model: w.Model, Train: w.Train, Test: w.Test,
		NumServers: numServers, FServers: fServers,
		NumWorkers: numWorkers, FWorkers: fWorkers,
		QuorumServers: quorumParams, QuorumWorkers: quorumGrads,
		ServerAttacks: serverAttacks, WorkerAttacks: workerAttacks,
		Steps: s.steps, Batch: s.batch, LR: s.schedule(round),
		Rule:      traceRule(grad, rec, "sim", roleGrad),
		ParamRule: traceRule(param, rec, "sim", roleParam),
		EvalEvery: 10,
		Seed:      seed,
	}
	start := time.Now()
	res, err := core.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rec.add(spanRun, "", "sim", -1, start, time.Now(), 0)
	return &roundResult{final: res.Final, curve: res.Curve, accuracy: res.FinalAccuracy}, nil
}

// runTracedTCP mirrors guanyu.runLiveTCP: one goroutine per node over real
// loopback sockets, minus the options no workload uses (fault injection,
// metrics registry, checkpoints, suspicion).
func runTracedTCP(ctx context.Context, s spec, w guanyu.Workload, seed uint64, round int, rec *recorder) (*roundResult, error) {
	workerAttacks, serverAttacks, err := s.attackMaps(seed)
	if err != nil {
		return nil, err
	}
	comp, err := compress.ParseSpec(s.compression)
	if err != nil {
		return nil, err
	}
	mailbox, err := transport.ParseMailboxSpec(s.mailbox)
	if err != nil {
		return nil, err
	}
	serverIDs, workerIDs := make([]string, numServers), make([]string, numWorkers)
	byzantine := make(map[string]bool)
	for i := range serverIDs {
		serverIDs[i] = cluster.ServerID(i)
		byzantine[serverIDs[i]] = serverAttacks[i] != nil
	}
	for j := range workerIDs {
		workerIDs[j] = cluster.WorkerID(j)
		byzantine[workerIDs[j]] = workerAttacks[j] != nil
	}
	dim := w.Model.ParamCount()

	meshStart := time.Now()
	nodes := make(map[string]*transport.TCPNode, numServers+numWorkers)
	closeAll := func() {
		for _, node := range nodes {
			node.Close()
		}
	}
	defer closeAll()
	for _, id := range append(append([]string{}, serverIDs...), workerIDs...) {
		node, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			return nil, fmt.Errorf("listen %s: %w", id, err)
		}
		nodes[id] = node
		if comp.Enabled() && !byzantine[id] {
			if err := node.SetCompression(comp, dim); err != nil {
				return nil, fmt.Errorf("compression %s: %w", id, err)
			}
		}
		if mailbox.Bounded() {
			if err := node.SetMailbox(mailbox); err != nil {
				return nil, fmt.Errorf("mailbox %s: %w", id, err)
			}
		}
	}
	for _, node := range nodes {
		for id, peer := range nodes {
			if id != node.ID() {
				if err := node.AddPeer(id, peer.Addr()); err != nil {
					return nil, fmt.Errorf("peer %s→%s: %w", node.ID(), id, err)
				}
			}
		}
	}
	mesh := time.Since(meshStart)

	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			closeAll()
		case <-watchDone:
		}
	}()

	// endpoint stacks a node the way runLiveTCP does: honest nodes of a
	// bounded deployment send through couriers; the trace wrapper sits on
	// the socket endpoint underneath.
	endpoint := func(id string) transport.Endpoint {
		var ep transport.Endpoint = tracedEndpoint{Endpoint: nodes[id], rec: rec}
		if !byzantine[id] && mailbox.Bounded() {
			ep = transport.NewCouriers(ep, mailbox)
		}
		return ep
	}

	theta0 := w.Model.ParamVector()
	rng := tensor.NewRNG(seed)
	lr := s.schedule(round)
	serverView, workerView := cluster.AdversaryViews(fServers, serverAttacks, fWorkers, workerAttacks)
	grad, param := rules()

	// As in runLiveTCP, a node's endpoint is closed after its loop is counted
	// done: couriers flushing to a peer that has already left would otherwise
	// sit out a dial back-off per queued frame, and closeAll below cuts that
	// short only once every loop has returned. closers then waits for the
	// flushes, so no span is recorded after this function returns.
	var (
		wg, closers sync.WaitGroup
		mu          sync.Mutex
		params      = make(map[int][]float64)
		runErrs     []error
		lastServer  time.Time
	)
	for i := 0; i < numServers; i++ {
		id := serverIDs[i]
		peers := make([]string, 0, numServers-1)
		for _, p := range serverIDs {
			if p != id {
				peers = append(peers, p)
			}
		}
		cfg := cluster.ServerConfig{
			ID: id, Workers: workerIDs, Peers: peers, Init: theta0,
			GradRule:        traceRule(grad, rec, id, roleGrad),
			ParamRule:       traceRule(param, rec, id, roleParam),
			QuorumGradients: quorumGrads, QuorumParams: quorumParams,
			Steps: s.steps, LR: lr, Timeout: liveTimeout,
			Attack: serverAttacks[i], View: serverView, ShardSize: s.shard,
		}
		ep := endpoint(id)
		wg.Add(1)
		closers.Add(1)
		go func(i int) {
			defer closers.Done()
			defer ep.Close()
			defer wg.Done()
			start := time.Now()
			theta, err := cluster.RunServer(ep, cfg)
			end := time.Now()
			rec.add(spanRun, "", cfg.ID, -1, start, end, 0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				runErrs = append(runErrs, err)
			case cfg.Attack == nil:
				params[i] = theta
				if end.After(lastServer) {
					lastServer = end
				}
			}
		}(i)
	}
	for j := 0; j < numWorkers; j++ {
		id := workerIDs[j]
		cfg := cluster.WorkerConfig{
			ID: id, Servers: serverIDs,
			Model:     w.Model.Clone(),
			Sampler:   dataset.NewSampler(w.Train, rng.Split()),
			Batch:     s.batch,
			ParamRule: traceRule(param, rec, id, roleParam), QuorumParams: quorumParams,
			Steps: s.steps, Timeout: liveTimeout,
			Attack: workerAttacks[j], View: workerView, ShardSize: s.shard,
		}
		ep := endpoint(id)
		wg.Add(1)
		closers.Add(1)
		go func() {
			defer closers.Done()
			defer ep.Close()
			defer wg.Done()
			start := time.Now()
			err := cluster.RunWorker(ep, cfg)
			rec.add(spanRun, "", cfg.ID, -1, start, time.Now(), 0)
			if err != nil {
				mu.Lock()
				runErrs = append(runErrs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	closeAll()
	closers.Wait()
	teardown := time.Since(lastServer)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("traced run cancelled: %w", err)
	}
	if len(runErrs) > 0 {
		return nil, fmt.Errorf("traced run failed: %w (and %d more)", runErrs[0], len(runErrs)-1)
	}
	finals := make([]tensor.Vector, 0, len(params))
	for _, theta := range params {
		finals = append(finals, theta)
	}
	final, err := gar.Median{}.Aggregate(finals)
	if err != nil {
		return nil, err
	}
	eval := w.Model.Clone()
	if err := eval.SetParamVector(final); err != nil {
		return nil, err
	}
	return &roundResult{
		final: final, serverParams: params,
		accuracy: nn.Accuracy(eval, w.Test.X, w.Test.Labels),
		mesh:     mesh, teardown: teardown,
	}, nil
}
