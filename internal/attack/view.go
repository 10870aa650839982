package attack

import (
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
// The runtimes build views from the honest vectors of the message class the
// Byzantine nodes are about to corrupt: gradients for workers, parameter
// vectors for servers. The deterministic simulator supplies the complete
// honest set every step; the live runtimes publish honest vectors as they
// are produced, so a concurrently-running Byzantine node may see only the
// subset already available — omniscience degraded by real asynchrony. A
// view is read only while Omniscient.Craft runs: the live runtimes recycle
// its vectors once every colluder has passed the step (SharedView.Pass), so
// an attack that keeps a value past that copies it.
type ClusterView interface {
	// Step is the protocol step the view belongs to.
	Step() int
	// Honest returns the honest vectors visible this step. The slice and
	// its vectors are read-only. Craft is only called with a non-empty set.
	Honest() []tensor.Vector
	// F is the declared Byzantine bound of the sender population the
	// Byzantine node belongs to (f̄ for workers, f for servers).
	F() int
	// Colluders is the number of actually-Byzantine senders coordinating
	// with this node (itself included).
	Colluders() int
}

// Omniscient marks attacks that adapt to the honest cluster state. They
// are stateless values: Craft writes the one vector every colluder sends,
// and the runtimes call it at most once per distinct attack, message kind
// and step (see Crafts) — colluders armed with equal values (==) share that
// craft, so an implementation must be comparable. Corrupt is the attack's
// local-knowledge fallback, for a colluder that sees no honest vector yet
// (or no view at all, across processes): it is called once per broadcast,
// and the vector it returns, which the caller owns and hands to the tensor
// free list once sent, goes to every receiver. Both must be safe for
// concurrent use.
type Omniscient interface {
	Attack
	// Craft writes the colluders' vector for view v into out, whose length
	// is the dimension of v's honest vectors.
	Craft(out tensor.Vector, v ClusterView)
}

// Crafts holds the vectors the omniscient colluders of one step send: each
// distinct attack crafts at most once per message kind, from the view it is
// first asked with, into one free-list vector that every colluder of that
// kind sends until Release. The zero value is empty; it is safe for
// concurrent use.
type Crafts struct {
	mu   sync.Mutex
	vecs map[crafted]tensor.Vector
}

// crafted keys one craft: the attack and the message kind it speaks in.
type crafted struct {
	by   Omniscient
	kind uint8
}

// Get returns a's vector for kind, crafted from v on the first call; nil
// when no vector has been crafted yet and v shows no honest one — the
// colluder then falls back to a.Corrupt. The vector stays the Crafts' own:
// callers read it until Release.
func (c *Crafts) Get(a Omniscient, kind uint8, v ClusterView) tensor.Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := crafted{a, kind}
	if out, ok := c.vecs[k]; ok {
		return out
	}
	hv := v.Honest()
	if len(hv) == 0 {
		return nil
	}
	out := tensor.Get(len(hv[0]))
	a.Craft(out, v)
	if c.vecs == nil {
		c.vecs = make(map[crafted]tensor.Vector)
	}
	c.vecs[k] = out
	return out
}

// Release hands every crafted vector back to the free list; the caller
// guarantees that nothing reads them any more.
func (c *Crafts) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.vecs {
		tensor.Put(v)
	}
	clear(c.vecs)
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

// sharedViewWindow bounds how many steps of history a SharedView retains;
// old steps are garbage-collected as new ones are published.
const sharedViewWindow = 16

// SharedView implements omniscience for the live runtimes: the runtime
// publishes every honest node's outbound vector of a step (once per step,
// copied at publication so senders may keep mutating their buffers), and
// Byzantine nodes craft from the set published so far. Because nodes run
// concurrently, that set may be partial — the faithful "arbitrarily fast
// but not clairvoyant" adversary.
//
// The copies and the crafted vectors come from the tensor free list. Every
// node that crafts from the view passes each step once it has sent its last
// vector of it (Pass); when the last of them has passed a step, nothing
// reads that step or any earlier one again, and they go back. A step whose
// crafters do not all pass it (one crashed or failed) stays until it leaves
// the window, when it is left to the garbage collector, since a colluder may
// still be reading or sending from it; what the window holds at the end of
// the run goes back at Close.
type SharedView struct {
	f         int
	colluders int
	crafters  int

	mu    sync.Mutex
	steps map[int]*viewStep
	// done is the first step not yet retired: every crafter has passed
	// each step below it.
	done int
}

// viewStep is one step of a SharedView: the honest copies published so far,
// what the colluders crafted from them, and how many crafters passed it.
type viewStep struct {
	honest []tensor.Vector
	crafts Crafts
	passed int
}

// release hands the step's copies and crafted vectors back to the free list.
func (w *viewStep) release() {
	for _, v := range w.honest {
		tensor.Put(v)
	}
	w.crafts.Release()
}

// NewSharedView builds an empty view for one message class (gradients or
// parameter vectors) with the population's declared bound f, the number of
// colluding Byzantine senders, and how many of them craft from the view and
// pass each step (see Pass).
func NewSharedView(f, colluders, crafters int) *SharedView {
	return &SharedView{f: f, colluders: colluders, crafters: crafters, steps: make(map[int]*viewStep)}
}

// at returns step's entry, creating it. Caller holds mu.
func (s *SharedView) at(step int) *viewStep {
	w := s.steps[step]
	if w == nil {
		w = new(viewStep)
		s.steps[step] = w
	}
	return w
}

// Publish records a copy of one honest node's vector for the given step. A
// step every crafter has already passed gets no copy.
func (s *SharedView) Publish(step int, vec tensor.Vector) {
	s.mu.Lock()
	late := step < s.done
	s.mu.Unlock()
	if late {
		return
	}
	cp := tensor.Get(len(vec))
	copy(cp, vec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < s.done { // the last crafter passed it while we copied
		tensor.Put(cp)
		return
	}
	w := s.at(step)
	w.honest = append(w.honest, cp)
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
	var honest []tensor.Vector
	if w := s.steps[step]; w != nil {
		honest = slices.Clone(w.honest)
	}
	s.mu.Unlock()
	return NewStepView(step, honest, s.f, s.colluders)
}

// Craft returns the vector a's colluders send in kind at step: crafted by
// the first of them to find an honest vector published for the step, from
// the snapshot it finds, and kept until every crafter has passed the step.
// It returns nil while nothing is published for the step, and on a nil
// view.
func (s *SharedView) Craft(a Omniscient, kind uint8, step int) tensor.Vector {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	w := s.steps[step]
	s.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.crafts.Get(a, kind, s.Snapshot(step))
}

// Pass records that one crafter has sent its last vector of step, so it
// reads nothing of that step or any earlier one again: crafters pass their
// steps in order, each step once. When the last crafter has passed step,
// its copies and crafted vectors go back to the free list with those of
// every earlier step still held, and a later Publish into any of them
// copies nothing. Passing on a nil view does nothing.
func (s *SharedView) Pass(step int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if step < s.done {
		return
	}
	w := s.at(step)
	if w.passed++; w.passed < s.crafters {
		return
	}
	for t, w := range s.steps {
		if t <= step {
			w.release()
			delete(s.steps, t)
		}
	}
	s.done = step + 1
}

// Close hands every copy and crafted vector still held back to the free
// list. The caller guarantees that nothing reads the view any more: the live
// launcher closes its views once every node loop has returned. Closing a nil
// view does nothing.
func (s *SharedView) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.steps {
		w.release()
	}
	clear(s.steps)
}
