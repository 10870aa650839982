package attack

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// ClusterView is the omniscient adversary's window onto the honest cluster
// at one protocol step. The model grants the adversary full knowledge — it
// may read every honest value — but not omnipotence: it can only speak
// through the nodes it controls. Accordingly a view is read-only: attacks
// must not modify the vectors it exposes.
//
// The runtimes feed views with the honest vectors of the message class the
// Byzantine node is about to corrupt: gradients for a worker, parameter
// vectors for a server. The deterministic simulator supplies the complete
// honest set every step; the live runtimes publish honest vectors as they
// are produced, so a concurrently-running Byzantine node may observe only
// the subset already available — omniscience degraded by real asynchrony.
// Attacks therefore must tolerate an empty Honest() set (falling back to
// the honest basis vector Corrupt receives).
//
// A view's vectors are valid until the attack's next Observe: a live
// runtime may hand the memory behind a snapshot back to the tensor free
// list once the attack has observed the one after it (the launcher does at
// the end of a run, see SharedView.Close), so an attack that keeps a value
// past that copies it.
type ClusterView interface {
	// Step is the protocol step the view belongs to.
	Step() int
	// Honest returns the honest vectors visible this step. The slice and
	// its vectors are read-only. May be empty.
	Honest() []tensor.Vector
	// F is the declared Byzantine bound of the sender population the
	// Byzantine node belongs to (f̄ for workers, f for servers).
	F() int
	// Colluders is the number of actually-Byzantine senders coordinating
	// with this node (itself included).
	Colluders() int
}

// Omniscient marks attacks that adapt to the honest cluster state. Runtimes
// call Observe with the current step's view before invoking Corrupt for
// that step. Observe may be called multiple times per step (the live
// runtimes refresh the view as honest vectors arrive); implementations
// adopt the view they are given — whatever its step, so a new run starts
// from its own first view — stop reading the one before, and must be safe
// for concurrent use.
//
// What Corrupt returns is lent to the caller until the attack's next
// Observe, which may hand it back to the tensor free list (the attacks of
// this package do; the live launcher's end-of-run Observe of an empty view
// returns a run's last one). Between two Observes they lend one vector to
// every receiver, and their degraded-view fallback rewrites it in place
// from each call's honest basis. One instance therefore serves one node:
// both runtimes refuse an instance armed at two node indices
// (CheckInstances), since one loop's Observe would recycle a vector another
// loop is still sending.
type Omniscient interface {
	Attack
	// Observe hands the attack its view of the honest cluster.
	Observe(v ClusterView)
}

// CheckInstances refuses one Omniscient instance armed at two node indices,
// within one attack map or across the server and worker maps: an omniscient
// attack owns the vector it crafts, so each node needs its own instance.
// Only pointer-typed attacks can be shared; a value is a copy per index.
func CheckInstances(servers, workers map[int]Attack) error {
	seen := make(map[Omniscient]string)
	for _, role := range []struct {
		name    string
		attacks map[int]Attack
	}{{"server", servers}, {"worker", workers}} {
		for _, i := range slices.Sorted(maps.Keys(role.attacks)) {
			o, ok := role.attacks[i].(Omniscient)
			if !ok || reflect.ValueOf(o).Kind() != reflect.Pointer {
				continue
			}
			at := fmt.Sprintf("%s %d", role.name, i)
			if first, dup := seen[o]; dup {
				return fmt.Errorf("attack: one %s instance armed at %s and %s; an omniscient attack needs one instance per node",
					o.Name(), first, at)
			}
			seen[o] = at
		}
	}
	return nil
}

// StepView is the ClusterView of the deterministic runtimes: a complete
// immutable snapshot of the honest vectors of one step.
type StepView struct {
	step      int
	honest    []tensor.Vector
	f         int
	colluders int
}

var _ ClusterView = StepView{}

// NewStepView builds a view over the given honest vectors. The slice is
// retained, not copied: callers guarantee it stays unmodified while any
// attack may read it (the simulator's per-step honest sets satisfy this).
func NewStepView(step int, honest []tensor.Vector, f, colluders int) StepView {
	return StepView{step: step, honest: honest, f: f, colluders: colluders}
}

// Step implements ClusterView.
func (v StepView) Step() int { return v.step }

// Honest implements ClusterView.
func (v StepView) Honest() []tensor.Vector { return v.honest }

// F implements ClusterView.
func (v StepView) F() int { return v.f }

// Colluders implements ClusterView.
func (v StepView) Colluders() int { return v.colluders }

// ObserveAll feeds the view to every Omniscient attack in the map. The
// runtimes call it once per step and message class.
func ObserveAll(attacks map[int]Attack, v ClusterView) {
	for _, a := range attacks {
		if o, ok := a.(Omniscient); ok {
			o.Observe(v)
		}
	}
}

// sharedViewWindow bounds how many steps of history a SharedView retains;
// old steps are garbage-collected as new ones are published.
const sharedViewWindow = 16

// SharedView implements omniscience for the live runtimes: the runtime
// publishes every honest node's outbound vector of a step (once per step,
// copied at publication so senders may keep mutating their buffers), and
// Byzantine nodes snapshot the set published so far. Because nodes run
// concurrently, a snapshot may be partial — the faithful "arbitrarily fast
// but not clairvoyant" adversary.
//
// The copies come from the tensor free list. A step leaving the window is
// left to the garbage collector, since a snapshot of it may still be read;
// what the window holds at the end of the run goes back at Close.
type SharedView struct {
	f         int
	colluders int

	mu    sync.Mutex
	steps map[int][]tensor.Vector
}

// NewSharedView builds an empty view for one message class (gradients or
// parameter vectors) with the population's declared bound f and the number
// of colluding Byzantine senders.
func NewSharedView(f, colluders int) *SharedView {
	return &SharedView{f: f, colluders: colluders, steps: make(map[int][]tensor.Vector)}
}

// Publish records a copy of one honest node's vector for the given step.
func (s *SharedView) Publish(step int, vec tensor.Vector) {
	cp := tensor.Get(len(vec))
	copy(cp, vec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.steps[step] = append(s.steps[step], cp)
	for old := range s.steps {
		if old < step-sharedViewWindow {
			delete(s.steps, old)
		}
	}
}

// Snapshot returns the view of one step: the honest vectors published so
// far. The returned vectors are the published copies and are read-only.
func (s *SharedView) Snapshot(step int) ClusterView {
	s.mu.Lock()
	honest := append([]tensor.Vector(nil), s.steps[step]...)
	s.mu.Unlock()
	return NewStepView(step, honest, s.f, s.colluders)
}

// Close hands every copy still in the window back to the free list. The
// caller guarantees that nothing reads a snapshot of the view any more: the
// live launcher closes its views once every node loop has returned and every
// Omniscient attack has observed an empty view. Closing a nil view does
// nothing.
func (s *SharedView) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, vecs := range s.steps {
		for _, v := range vecs {
			tensor.Put(v)
		}
	}
	clear(s.steps)
}
