// Package gar is the public gradient-aggregation-rule API of the guanyu
// façade: the aggregation rules of "Genuinely Distributed Byzantine Machine
// Learning" (PODC 2020) behind one deployment-facing contract.
//
// A Rule combines n input vectors into one output vector and, when
// (α,f)-Byzantine resilient, tolerates f arbitrary inputs among them. The
// contract differs from a plain func in two ways that matter in the hot
// aggregation loop of a parameter server:
//
//   - Aggregate takes a caller-supplied destination slice, so steady-state
//     aggregation performs no allocations ("mean" and, up to 16 inputs,
//     "coordinate-median" are allocation-free after first use; see the
//     AllocsPerRun benchmarks);
//   - Aggregate takes a context.Context, so a deployment being torn down
//     cancels in-flight aggregation at the next call boundary.
//
// Rules are constructed through a registry keyed by stable names
// ("multi-krum", "coordinate-median", ...) so command-line flags, experiment
// tables and deployment builders select rules without switch statements.
// The registry constructor is also where the theory's legality bounds
// surface: a rule built for declared Byzantine count f with a known input
// cardinality or node population fails construction when the bounds are
// violated. The authoritative statement of the bounds lives in bounds.go:
// rule inputs n ≥ 2f+3 (krum, multi-krum), n ≥ 2f+1 (trimmed-mean),
// n ≥ 4f+3 (bulyan), n ≥ f+1 (mda); deployment populations n ≥ 3f+3;
// quorums 2f+3 ≤ q ≤ n−f.
package gar

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	igar "repro/internal/gar"
	"repro/internal/parallel"
)

// Rule is a gradient aggregation rule.
//
// Rules constructed by this package may keep internal scratch buffers and
// are therefore not safe for concurrent use; construct one Rule per
// goroutine.
type Rule interface {
	// Name returns the name the rule was constructed under in the
	// registry, so New(name).Name() == name round-trips.
	Name() string
	// Aggregate combines the input vectors into dst and returns it. A nil
	// dst is allocated to the inputs' dimension; a non-nil dst must already
	// have that dimension. Inputs are not modified. Cancellation of ctx is
	// observed at call boundaries. An error is returned when the input set
	// violates the rule's resilience precondition.
	Aggregate(ctx context.Context, dst []float64, inputs [][]float64) ([]float64, error)
}

// ErrTooFewInputs is returned when a rule receives fewer inputs than its
// Byzantine-resilience precondition requires.
var ErrTooFewInputs = igar.ErrTooFewInputs

// ErrUnknownRule is returned by New for names absent from the registry.
var ErrUnknownRule = errors.New("gar: unknown rule")

// Params configures rule construction through the registry.
type Params struct {
	// F is the declared number of Byzantine inputs the rule must tolerate.
	F int
	// Inputs, when positive, is the cardinality of the input sets the rule
	// will aggregate (the quorum). Construction fails when it violates the
	// rule's precondition — n ≥ 2f+3 for krum/multi-krum, n ≥ 2f+1 for
	// trimmed-mean, n ≥ 4f+3 for bulyan, n ≥ f+1 for mda (the authoritative
	// statement lives in bounds.go).
	Inputs int
	// Deployment, when positive, is the node population the rule serves.
	// Construction fails when it violates the paper's deployment bound
	// n ≥ 3f+3.
	Deployment int
}

// Constructor builds a rule from Params. Third-party rules register one via
// Register.
type Constructor func(p Params) (Rule, error)

var (
	extraMu sync.RWMutex
	extra   = map[string]Constructor{}
)

// Register adds a rule constructor under the given name. It fails when the
// name collides with a built-in or previously registered rule.
func Register(name string, c Constructor) error {
	if name == "" || c == nil {
		return fmt.Errorf("gar: Register needs a name and a constructor")
	}
	if _, err := igar.LookupSpec(name); err == nil {
		return fmt.Errorf("gar: rule %q is a built-in", name)
	}
	extraMu.Lock()
	defer extraMu.Unlock()
	if _, dup := extra[name]; dup {
		return fmt.Errorf("gar: rule %q already registered", name)
	}
	extra[name] = c
	return nil
}

// Names lists every constructible rule name, sorted.
func Names() []string {
	names := igar.RuleNames()
	extraMu.RLock()
	for name := range extra {
		names = append(names, name)
	}
	extraMu.RUnlock()
	sort.Strings(names)
	return names
}

// New constructs the named rule. See Params for the legality checks
// performed at construction time.
func New(name string, p Params) (Rule, error) {
	if p.F < 0 {
		return nil, fmt.Errorf("gar: rule %q: negative f=%d", name, p.F)
	}
	spec, specErr := igar.LookupSpec(name)
	if specErr != nil {
		extraMu.RLock()
		c, ok := extra[name]
		extraMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownRule, name, Names())
		}
		return c(p)
	}
	if p.Deployment > 0 {
		if err := igar.CheckRole("node", p.Deployment, p.F, 0, nil); err != nil {
			return nil, err
		}
	}
	if p.Inputs > 0 {
		if min := spec.MinInputs(p.F); p.Inputs < min {
			return nil, fmt.Errorf("%w: rule %q needs ≥ %d inputs with f=%d, got %d",
				ErrTooFewInputs, name, min, p.F, p.Inputs)
		}
	}
	switch name {
	case "mean":
		return newChunkRule(name, 1<<12, igar.MeanChunkInto), nil
	case "coordinate-median":
		return newChunkRule(name, 1<<10, igar.MedianChunkInto), nil
	default:
		return &adapted{name: name, rule: spec.New(p.F)}, nil
	}
}

// MustNew is New for statically known names; it panics on error.
func MustNew(name string, p Params) Rule {
	r, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return r
}

// MinInputs returns the named built-in rule's input-cardinality
// precondition for declared f.
func MinInputs(name string, f int) (int, error) {
	return igar.MinInputs(name, f)
}

// prepareDst allocates dst when nil; inputs are validated by the kernels.
func prepareDst(dst []float64, inputs [][]float64) []float64 {
	if dst == nil && len(inputs) > 0 {
		dst = make([]float64, len(inputs[0]))
	}
	return dst
}

// chunkRule is an allocation-free coordinate-wise rule ("mean",
// "coordinate-median") around one of the internal chunk kernels. Large
// dimensions are aggregated in parallel coordinate chunks through a
// reusable parallel.Runner — which is what makes the steady-state path
// zero-alloc at any parallelism, and the rule single-goroutine only; each
// coordinate's arithmetic order is fixed by the kernel (input order for the
// mean, sorted order for the median), so the result is bit-identical to
// serial. (Beyond the median kernel's 16-input comparator networks each
// chunk allocates one scratch column.)
type chunkRule struct {
	name   string
	grain  int // one chunk's compute must dominate pool-dispatch cost; mirrors the internal kernels
	dst    []float64
	inputs [][]float64
	runner *parallel.Runner
}

func newChunkRule(name string, grain int, kernel func(dst []float64, inputs [][]float64, lo, hi int)) *chunkRule {
	r := &chunkRule{name: name, grain: grain}
	r.runner = parallel.NewRunner(func(_, lo, hi int) { kernel(r.dst, r.inputs, lo, hi) })
	return r
}

func (r *chunkRule) Name() string { return r.name }

func (r *chunkRule) Aggregate(ctx context.Context, dst []float64, inputs [][]float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dst = prepareDst(dst, inputs)
	if err := igar.CheckInto(dst, inputs); err != nil {
		return nil, err
	}
	r.dst, r.inputs = dst, inputs
	r.runner.Run(len(dst), r.grain)
	r.dst, r.inputs = nil, nil
	return dst, nil
}

// adapted lifts a classic allocate-and-return rule onto the public
// contract. The underlying rule allocates its output; the adapter copies it
// into dst when one is supplied.
type adapted struct {
	name string
	rule igar.Rule
}

func (a *adapted) Name() string { return a.name }

func (a *adapted) Aggregate(ctx context.Context, dst []float64, inputs [][]float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := a.rule.Aggregate(inputs)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		return out, nil
	}
	if len(dst) != len(out) {
		return nil, fmt.Errorf("gar: destination has dimension %d, rule produced %d",
			len(dst), len(out))
	}
	copy(dst, out)
	return dst, nil
}
