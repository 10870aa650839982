package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/transport"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// isServerNode tells a parameter server from a worker by its canonical ID
// ("ps<i>" / "wrk<j>"); the simulator's single pseudo-node counts as neither.
func isServerNode(node string) bool { return strings.HasPrefix(node, "ps") }

// honestNode reports whether node runs no attack under s (workers and
// servers 0..n-1 are the Byzantine ones).
func (s spec) honestNode(node string) bool {
	if rest, ok := strings.CutPrefix(node, "ps"); ok {
		i, err := strconv.Atoi(rest)
		return err != nil || i >= s.byzServers
	}
	if rest, ok := strings.CutPrefix(node, "wrk"); ok {
		j, err := strconv.Atoi(rest)
		return err != nil || j >= s.byzWorkers
	}
	return true
}

func isRuleSpan(s span) bool {
	return s.Name == spanAggregate || s.Name == spanFold || s.Name == spanResult
}

// spanMetrics turns the linked spans of the traced rounds (steps protocol
// steps in all) into the per-layer metrics that come from the live trace.
// Per-node quantities are means over honest nodes, so for one average node
// send + recv wait + rules + self time add up to its step.
func spanMetrics(s spec, spans []span, steps int, counts stepCounts) map[string]float64 {
	m := make(map[string]float64)
	if steps == 0 {
		return m
	}
	perStep := func(total float64) float64 { return total / float64(steps) }

	honestServers, honestWorkers := 0, 0
	if !s.sim {
		honestServers, honestWorkers = numServers-s.byzServers, numWorkers-s.byzWorkers
	}
	honestNodes := max(honestServers+honestWorkers, 1) // the simulator is one node

	var sendNS, recvNS, gradNS, paramNS int64
	var serverSteps, workerSteps []float64
	for _, sp := range spans {
		if !s.honestNode(sp.Node) {
			continue
		}
		switch {
		case sp.Name == spanSend:
			sendNS += sp.dur()
		case sp.Name == spanRecv:
			recvNS += sp.dur()
		case isRuleSpan(sp) && sp.Kind == roleGrad:
			gradNS += sp.dur()
		case isRuleSpan(sp) && sp.Kind == roleParam:
			paramNS += sp.dur()
		case sp.Name == spanStep && isServerNode(sp.Node):
			serverSteps = append(serverSteps, float64(sp.dur())/1e6)
		case sp.Name == spanStep:
			workerSteps = append(workerSteps, float64(sp.dur())/1e6)
		}
	}
	m["transport.frames_sent_per_step"] = counts.framesSent
	m["transport.frames_recv_per_step"] = counts.framesRecv
	m["transport.payload_mb_per_step"] = counts.payloadMB
	m["gar.calls_per_step"] = counts.gradCalls + counts.paramCalls
	m["transport.send_ms_per_step"] = perStep(float64(sendNS) / 1e6 / float64(honestNodes))
	m["transport.recv_wait_ms_per_step"] = perStep(float64(recvNS) / 1e6 / float64(honestNodes))
	m["gar.grad_rule_ms_per_step"] = perStep(float64(gradNS) / 1e6 / float64(max(honestServers, 1)))
	m["gar.param_rule_ms_per_step"] = perStep(float64(paramNS) / 1e6 / float64(honestNodes))

	if len(serverSteps) > 0 {
		m["cluster.server_step_ms_p50"] = median(serverSteps)
		// ok=false (too few samples for any percentile) still reports the
		// maximum at pct 100; the sample count beside it says why.
		v, pct, _ := tail(serverSteps)
		m["cluster.server_step_ms_tail"] = v
		m["cluster.server_step_tail_pct"] = pct
		m["cluster.server_step_samples"] = float64(len(serverSteps))
	}
	if len(workerSteps) > 0 {
		m["cluster.worker_step_ms_p50"] = median(workerSteps)
	}

	self := selfTimes(spans)
	var serverSelf, workerSelf int64
	for _, sp := range spans {
		if sp.Name != spanStep || !s.honestNode(sp.Node) {
			continue
		}
		if isServerNode(sp.Node) {
			serverSelf += self[sp.ID]
		} else {
			workerSelf += self[sp.ID]
		}
	}
	if honestServers > 0 {
		m["cluster.server_self_ms_per_step"] = perStep(float64(serverSelf) / 1e6 / float64(honestServers))
		m["cluster.worker_self_ms_per_step"] = perStep(float64(workerSelf) / 1e6 / float64(honestWorkers))
	}

	m["nn.gradient_ms_per_step"] = meanGapMS(s, spans, false, roleParam, transport.KindGradient.String())
	m["cluster.update_ms_per_step"] = meanGapMS(s, spans, true, roleGrad, transport.KindPeerParams.String())
	return m
}

// meanGapMS is the mean, over honest servers (or workers) and steps, of the
// time between the end of the node's last rule call of the given role and
// its first Send of sendKind in the step that follows it: gradient compute
// for a worker (param rule → gradient broadcast), the model update for a
// server (grad rule → phase-3 broadcast).
func meanGapMS(s spec, spans []span, servers bool, role, sendKind string) float64 {
	type key struct {
		round int
		node  string
	}
	byNode := make(map[key][]span)
	for _, sp := range spans {
		if sp.Node == "sim" || isServerNode(sp.Node) != servers || !s.honestNode(sp.Node) {
			continue
		}
		if (isRuleSpan(sp) && sp.Kind == role) || (sp.Name == spanSend && sp.Kind == sendKind) {
			k := key{sp.Round, sp.Node}
			byNode[k] = append(byNode[k], sp)
		}
	}
	var total int64
	var n int
	for _, list := range byNode {
		sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
		ruleEnd, open := int64(0), false
		for _, sp := range list {
			switch {
			case isRuleSpan(sp):
				ruleEnd, open = sp.End, true
			case open: // first send after the rule returned
				total += max(sp.Start-ruleEnd, 0)
				n++
				open = false
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / 1e6 / float64(n)
}

// stepCounts are the operations per protocol step, over all nodes, that the
// traced run counted; the budget multiplies them by unit costs.
type stepCounts struct {
	framesSent, framesRecv float64
	honestFrames           float64 // frames honest nodes sent (the compressed ones)
	payloadMB              float64 // logical payload of the frames sent
	gradients              float64 // nn.BatchGradient calls
	gradCalls, paramCalls  float64 // aggregations: one Aggregate or one streamed Result each
}

func countSteps(s spec, spans []span, steps int) stepCounts {
	var c stepCounts
	for _, sp := range spans {
		switch {
		case sp.Name == spanSend:
			c.framesSent++
			c.payloadMB += float64(sp.Bytes) / 1e6
			if s.honestNode(sp.Node) {
				c.honestFrames++
			}
		case sp.Name == spanRecv:
			c.framesRecv++
		case (sp.Name == spanAggregate || sp.Name == spanResult) && sp.Kind == roleGrad:
			c.gradCalls++
		case (sp.Name == spanAggregate || sp.Name == spanResult) && sp.Kind == roleParam:
			c.paramCalls++
		}
	}
	n := float64(steps)
	c.framesSent, c.framesRecv, c.honestFrames, c.payloadMB = c.framesSent/n, c.framesRecv/n, c.honestFrames/n, c.payloadMB/n
	c.gradCalls, c.paramCalls = c.gradCalls/n, c.paramCalls/n
	// Every worker, Byzantine ones included, estimates a gradient each step
	// (an attack corrupts the honest estimate; it does not skip it).
	c.gradients = numWorkers
	return c
}

// budgetRows are the CPU milliseconds per step attributed to each layer:
// operation counts from the traced run times unit CPU costs timed in
// isolation. Span wall time cannot serve: 24 node goroutines share one
// processor, so a span includes time descheduled, and TCP decode runs in
// read-loop goroutines no wrapper sees.
var budgetRows = []string{
	"budget.nn_ms", "budget.encode_ms", "budget.decode_ms", "budget.socket_ms", "budget.validate_ms",
	"budget.compress_ms", "budget.multikrum_ms", "budget.median_ms", "budget.unattributed_ms",
}

// budget fills the budget.* metrics. cpuMSPerStep is the measured total the
// rows must add up to; unattributed is whatever the rows leave (collector
// bookkeeping, cloning, GC, scheduling — negative if isolation overprices a
// layer).
func budget(c stepCounts, u *unitCosts, cpuMSPerStep float64) map[string]float64 {
	// A loopback frame pays encode, decode and both codecs as well as the
	// sockets; what is left of it is the socket share.
	socket := max(u.loopback.cpu-u.encode.cpu-u.decode.cpu-u.compEncode.cpu-u.compDecode.cpu, 0)
	m := map[string]float64{
		"budget.nn_ms":        c.gradients * ms(u.gradient.cpu),
		"budget.encode_ms":    c.framesSent * ms(u.encode.cpu),
		"budget.decode_ms":    c.framesSent * ms(u.decode.cpu), // every frame sent is decoded once by its receiver
		"budget.socket_ms":    c.framesSent * ms(socket),
		"budget.validate_ms":  c.framesRecv * ms(u.validate.cpu),
		"budget.compress_ms":  c.honestFrames * ms(u.compEncode.cpu+u.compDecode.cpu),
		"budget.multikrum_ms": c.gradCalls * ms(u.multikrum.cpu),
		"budget.median_ms":    c.paramCalls * ms(u.median.cpu),
	}
	attributed := 0.0
	for _, v := range m {
		attributed += v
	}
	m["budget.unattributed_ms"] = cpuMSPerStep - attributed
	m["budget.total_ms"] = cpuMSPerStep
	if cpuMSPerStep > 0 {
		runtimeMS := m["budget.encode_ms"] + m["budget.decode_ms"] + m["budget.socket_ms"] +
			m["budget.validate_ms"] + m["budget.compress_ms"]
		m["budget.runtime_overhead_share"] = runtimeMS / cpuMSPerStep
		// The vanilla baseline averages the same gradients once per server.
		resilienceMS := m["budget.multikrum_ms"] + m["budget.median_ms"] - c.gradCalls*ms(u.mean.cpu)
		m["budget.resilience_overhead_share"] = resilienceMS / cpuMSPerStep
	}
	return m
}
