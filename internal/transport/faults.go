package transport

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// FaultConfig parameterises seeded network fault injection. The zero value
// injects nothing. All decisions derive from pure hashes of
// (Seed, step, from, to), never from shared generator state, so a fault
// schedule is bit-identical across reruns, across runtimes, and at any
// parallelism.
//
// The same configuration drives two faces:
//
//   - the deterministic simulator transforms per-message arrival times
//     (Arrival): drops and partition cuts become +Inf arrivals the quorum
//     discipline must absorb, delay spikes push arrivals out;
//   - the live runtimes wrap a node's transport.Endpoint (Wrap): sends are
//     really dropped, duplicated, held back behind a later message
//     (reordering), or delivered after a wall-clock spike.
//
// Duplication is live-only (the simulator's quorum arithmetic dedups by
// construction) and reordering is live-only (the simulator has no FIFO to
// violate — ordering already emerges from sampled arrival times). Faults
// apply to honest traffic: the Byzantine nodes' covert network is ideal by
// assumption, so handing their messages to the injector would weaken the
// adversary.
type FaultConfig struct {
	// Seed drives every fault decision.
	Seed uint64
	// Drop is the per-message loss probability.
	Drop float64
	// Duplicate is the per-message duplication probability (live only).
	Duplicate float64
	// Reorder is the probability a message is held back and delivered
	// after the sender's next message to the same destination (live only).
	Reorder float64
	// DelayRate is the probability of a latency spike on a message.
	DelayRate float64
	// DelaySpike is the spike magnitude upper bound in seconds (virtual
	// seconds in the simulator, wall seconds live); the spike drawn is
	// uniform in (0, DelaySpike].
	DelaySpike float64
	// PartitionEvery opens a temporary network partition every this many
	// steps (0 = never): nodes are split into two camps by name hash and
	// cross-camp messages are cut while the partition lasts.
	PartitionEvery int
	// PartitionFor is the partition duration in steps (default 1 when a
	// partition period is set).
	PartitionFor int
}

// Enabled reports whether the configuration injects any fault at all.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Duplicate > 0 || c.Reorder > 0 ||
		(c.DelayRate > 0 && c.DelaySpike > 0) || c.PartitionEvery > 0
}

// String renders the active fault terms for logs and experiment tables.
func (c FaultConfig) String() string {
	if !c.Enabled() {
		return "none"
	}
	out := ""
	add := func(s string) {
		if out != "" {
			out += ","
		}
		out += s
	}
	if c.Drop > 0 {
		add(fmt.Sprintf("drop=%g", c.Drop))
	}
	if c.Duplicate > 0 {
		add(fmt.Sprintf("dup=%g", c.Duplicate))
	}
	if c.Reorder > 0 {
		add(fmt.Sprintf("reorder=%g", c.Reorder))
	}
	if c.DelayRate > 0 && c.DelaySpike > 0 {
		add(fmt.Sprintf("delay=%g×%gs", c.DelayRate, c.DelaySpike))
	}
	if c.PartitionEvery > 0 {
		add(fmt.Sprintf("partition=%d/%d", c.partitionFor(), c.PartitionEvery))
	}
	return out
}

func (c FaultConfig) partitionFor() int {
	if c.PartitionFor <= 0 {
		return 1
	}
	return c.PartitionFor
}

// FaultInjector applies a FaultConfig to message traffic. Nil receivers are
// valid no-ops, so call sites need no guards.
type FaultInjector struct {
	cfg FaultConfig
}

// NewFaultInjector builds an injector, or nil when the configuration
// injects nothing.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if !cfg.Enabled() {
		return nil
	}
	return &FaultInjector{cfg: cfg}
}

// Config returns the injector's configuration (zero value when nil).
func (f *FaultInjector) Config() FaultConfig {
	if f == nil {
		return FaultConfig{}
	}
	return f.cfg
}

// decision is the fate of one message.
type decision struct {
	drop    bool
	dup     bool
	reorder bool
	delay   float64 // seconds, 0 = none
}

// decide derives the message's fate from (seed, step, from, to, shard). One
// generator is seeded from the tuple hash and consumed in a fixed draw
// order, so every face of the injector sees the same schedule. Chunk
// frames salt the hash with their shard index: each shard of a streamed
// vector is dropped, duplicated, reordered or delayed independently — a
// strictly richer fault surface than whole-vector injection, which the
// reassembly and incremental-quorum paths must absorb. Whole-vector
// messages use salt 0, so their schedule is unchanged by the existence of
// sharding.
func (f *FaultInjector) decide(step int, from, to string, shard ShardMeta) decision {
	salt := uint64(0)
	if shard.Count > 0 {
		salt = uint64(shard.Index) + 1
	}
	h := faultMix(f.cfg.Seed, uint64(step)+0x9e37, faultHash(from)^faultMix(0x85eb, faultHash(to), salt))
	rng := newFaultRNG(h)
	var d decision
	d.drop = rng.uniform() < f.cfg.Drop
	d.dup = rng.uniform() < f.cfg.Duplicate
	d.reorder = rng.uniform() < f.cfg.Reorder
	if rng.uniform() < f.cfg.DelayRate {
		d.delay = rng.uniform() * f.cfg.DelaySpike
	}
	return d
}

// Partitioned reports whether the (from, to) link is cut at the given step
// by a temporary partition window.
func (f *FaultInjector) Partitioned(step int, from, to string) bool {
	if f == nil || f.cfg.PartitionEvery <= 0 {
		return false
	}
	every, dur := f.cfg.PartitionEvery, f.cfg.partitionFor()
	if dur >= every {
		dur = every - 1 // a permanent partition is a misconfiguration; heal each cycle
	}
	if step%every < every-dur {
		return false
	}
	window := step / every
	sideA := (faultMix(f.cfg.Seed, uint64(window)+1, faultHash(from)) & 1) == 0
	sideB := (faultMix(f.cfg.Seed, uint64(window)+1, faultHash(to)) & 1) == 0
	return sideA != sideB
}

// Arrival is the simulator face: given a message's computed arrival time
// (virtual seconds), it returns the faulted arrival — +Inf when the message
// is dropped or cut by a partition, arrival plus the spike otherwise.
func (f *FaultInjector) Arrival(step int, from, to string, arrival float64) float64 {
	if f == nil {
		return arrival
	}
	if f.Partitioned(step, from, to) {
		return math.Inf(1)
	}
	// The simulator models whole vectors only, so its schedule is the
	// salt-0 one.
	d := f.decide(step, from, to, ShardMeta{})
	if d.drop {
		return math.Inf(1)
	}
	return arrival + d.delay
}

// Wrap is the live face: it returns an Endpoint whose Send passes every
// message through the injector. Decisions key on the message's protocol
// Step, so a live schedule mirrors the simulator's for the same seed.
func (f *FaultInjector) Wrap(ep Endpoint) Endpoint {
	if f == nil {
		return ep
	}
	return &faultEndpoint{inner: ep, inj: f, held: make(map[string]Message)}
}

// faultEndpoint injects faults on the send path. Receives are untouched:
// every fault is modelled at the sending link, which keeps the decision
// schedule identical to the simulator's sender-keyed hashing.
type faultEndpoint struct {
	inner Endpoint
	inj   *FaultInjector

	mu     sync.Mutex
	held   map[string]Message // per-destination message awaiting reordering
	timers sync.WaitGroup     // in-flight delay-spiked deliveries
}

var _ Endpoint = (*faultEndpoint)(nil)

// ID implements Endpoint.
func (e *faultEndpoint) ID() string { return e.inner.ID() }

// Recv implements Endpoint.
func (e *faultEndpoint) Recv(timeout time.Duration) (Message, bool) {
	return e.inner.Recv(timeout)
}

// Send implements Endpoint. Dropped messages report success — loss is
// silent, exactly as on a real network.
func (e *faultEndpoint) Send(to string, m Message) error {
	if e.inj.Partitioned(m.Step, e.inner.ID(), to) {
		e.flushHeld(to) // the held message predates the cut; release it
		return nil
	}
	d := e.inj.decide(m.Step, e.inner.ID(), to, m.Shard)
	if d.drop {
		return nil
	}
	if d.delay > 0 {
		// Deferred deliveries must snapshot the payload NOW: the transport
		// contract is immutability from the Send boundary on, and the
		// sender keeps mutating its parameter vector in place while the
		// timer runs.
		delayed := m.Clone()
		e.timers.Add(1)
		time.AfterFunc(time.Duration(d.delay*float64(time.Second)), func() {
			defer e.timers.Done()
			_ = e.inner.Send(to, delayed)
			delayed.Release()
		})
		e.flushHeld(to)
		return nil
	}
	if d.reorder {
		e.mu.Lock()
		_, busy := e.held[to]
		if !busy {
			e.held[to] = m.Clone() // held past the Send boundary: snapshot
			e.mu.Unlock()
			return nil // delivered behind the sender's next message to `to`
		}
		e.mu.Unlock()
	}
	err := e.inner.Send(to, m)
	if d.dup {
		_ = e.inner.Send(to, m)
	}
	e.flushHeld(to)
	return err
}

// flushHeld releases the held message for a destination, delivering it
// after whatever message triggered the flush — the reordering.
func (e *faultEndpoint) flushHeld(to string) {
	e.mu.Lock()
	m, ok := e.held[to]
	if ok {
		delete(e.held, to)
	}
	e.mu.Unlock()
	if ok {
		_ = e.inner.Send(to, m)
		m.Release()
	}
}

// Close implements Endpoint: held messages are released and in-flight
// delayed deliveries complete (a delay must degrade into a late message,
// never into a silent loss — a node that exits right after its last send
// would otherwise turn every trailing spike into a drop and starve its
// peers' quorums), then the inner endpoint is closed. The wait is bounded
// by DelaySpike.
func (e *faultEndpoint) Close() error {
	e.mu.Lock()
	held := e.held
	e.held = make(map[string]Message)
	e.mu.Unlock()
	for to, m := range held {
		_ = e.inner.Send(to, m)
		m.Release()
	}
	e.timers.Wait()
	return e.inner.Close()
}

// faultRNG is a splitmix64 stream — cheap, seedable from a hash, and
// consumed in fixed draw order for deterministic decisions.
type faultRNG struct{ s uint64 }

func newFaultRNG(seed uint64) *faultRNG { return &faultRNG{s: seed} }

func (r *faultRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *faultRNG) uniform() float64 { return float64(r.next()>>11) / (1 << 53) }

// faultHash is FNV-1a over a node name.
func faultHash(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// faultMix folds three words into one seed (splitmix64 finaliser).
func faultMix(a, b, c uint64) uint64 {
	x := a ^ (b * 0x9e3779b97f4a7c15) ^ (c * 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Named fault profiles, selectable as "name" or "name:k=v,...". They are
// the fault-side mirror of the attack registry: the -faults flags and the
// scenario-matrix experiment arm them by string.
var faultProfiles = map[string]struct {
	defaults map[string]float64
	build    func(p map[string]float64, seed uint64) FaultConfig
}{
	"none": {
		build: func(map[string]float64, uint64) FaultConfig { return FaultConfig{} },
	},
	"drop": {
		defaults: map[string]float64{"p": 0.02},
		build: func(p map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed, Drop: p["p"]}
		},
	},
	"dup": {
		defaults: map[string]float64{"p": 0.05},
		build: func(p map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed, Duplicate: p["p"]}
		},
	},
	"reorder": {
		defaults: map[string]float64{"p": 0.1},
		build: func(p map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed, Reorder: p["p"]}
		},
	},
	"delay": {
		defaults: map[string]float64{"p": 0.1, "spike": 0.005},
		build: func(p map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed, DelayRate: p["p"], DelaySpike: p["spike"]}
		},
	},
	"partition": {
		defaults: map[string]float64{"every": 25, "for": 2},
		build: func(p map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed,
				PartitionEvery: int(p["every"]), PartitionFor: int(p["for"])}
		},
	},
	"flaky": {
		defaults: map[string]float64{},
		build: func(_ map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed, Drop: 0.01, Duplicate: 0.02,
				Reorder: 0.05, DelayRate: 0.05, DelaySpike: 0.002}
		},
	},
	"chaos": {
		defaults: map[string]float64{},
		build: func(_ map[string]float64, seed uint64) FaultConfig {
			return FaultConfig{Seed: seed, Drop: 0.03, Duplicate: 0.05,
				Reorder: 0.1, DelayRate: 0.1, DelaySpike: 0.005}
		},
	},
}

// FaultNames lists the registered fault-profile names, sorted.
func FaultNames() []string {
	names := make([]string, 0, len(faultProfiles))
	for name := range faultProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FaultByName builds the named fault profile with parameter overrides
// (already split by the caller; see attack.ParseSpec for the spec syntax).
func FaultByName(name string, params map[string]float64, seed uint64) (FaultConfig, error) {
	p, ok := faultProfiles[name]
	if !ok {
		return FaultConfig{}, fmt.Errorf("transport: unknown fault profile %q (known: %v)",
			name, FaultNames())
	}
	merged := make(map[string]float64, len(p.defaults))
	for k, v := range p.defaults {
		merged[k] = v
	}
	for k, v := range params {
		if _, ok := p.defaults[k]; !ok {
			keys := make([]string, 0, len(p.defaults))
			for dk := range p.defaults {
				keys = append(keys, dk)
			}
			sort.Strings(keys)
			return FaultConfig{}, fmt.Errorf("transport: fault profile %s: unknown parameter %q (accepted: %v)",
				name, k, keys)
		}
		merged[k] = v
	}
	return p.build(merged, seed), nil
}
