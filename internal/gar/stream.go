package gar

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Shard-streaming aggregation. The quorum collector (see
// internal/transport's Collector) hands each coordinate shard's quorum to
// the aggregation rule the moment it completes — the whole vectors at once
// under the one-shard layout; the interfaces below are the rule-side half
// of that contract.
//
// The invariant every streamer maintains: folding the shards of a fixed
// input set — in any arrival order, at any shard size, at any parallelism
// — produces the exact bits of the whole-vector Aggregate on that set.
// Coordinate-wise rules get this for free (each output coordinate depends
// only on its own column; the streamers reuse the very chunk kernels
// Aggregate runs). Multi-Krum's pairwise distances span shards, so its
// streamer defers out-of-order shards and extends each running
// distance accumulator strictly in coordinate order — the serial
// whole-vector summation, merely paused at shard boundaries.

// ShardStreamer aggregates one round incrementally: Fold consumes the
// quorum's ordered payloads for coordinate range [lo, hi) (slices may be
// retained, and stay valid until their owner recycles them — after Result
// and after anything read off the finished streamer); Result finalises once
// every range has been folded, into a vector from tensor.Get that the
// caller owns (tensor.Put it when done, or leave it to the garbage
// collector). A streamer is single-use and not safe for concurrent Folds.
type ShardStreamer interface {
	// Fold consumes one shard: inputs[k] holds coordinates [lo, hi) of
	// input k. The folded ranges must eventually tile [0, dim) exactly;
	// order is free.
	Fold(lo, hi int, inputs []tensor.Vector) error
	// Result returns the aggregated vector; it errors when folded ranges
	// do not tile the dimension or the rule's precondition failed.
	Result() (tensor.Vector, error)
}

// StreamingRule is a Rule with a shard-streaming path whose Result is
// bit-identical to Aggregate over the same inputs.
type StreamingRule interface {
	Rule
	// NewStreamer starts one aggregation round at the given dimension.
	NewStreamer(dim int) ShardStreamer
	// PinnedQuorum reports whether every shard must carry the same ordered
	// input set (true for rules that correlate coordinates across shards,
	// e.g. Multi-Krum's distances; false for coordinate-wise rules, whose
	// per-coordinate resilience holds for any quorum with ≤ f Byzantine
	// members).
	PinnedQuorum() bool
}

// StreamerFor starts one aggregation round of rule at the given dimension
// and reports the membership mode it needs: a StreamingRule's own streamer,
// or — for a rule without a streaming path (krum, bulyan, geomed, mda) — a
// one-shard adapter whose single Fold takes the whole vectors and whose
// Result is rule.Aggregate over them. With one shard pinned and per-shard
// membership coincide; the adapter asks for pinned so that its caller learns
// the sender order SelectedIndices indexes.
func StreamerFor(rule Rule, dim int) (st ShardStreamer, pinned bool) {
	if sr, ok := rule.(StreamingRule); ok {
		return sr.NewStreamer(dim), sr.PinnedQuorum()
	}
	return &wholeStreamer{rule: rule, dim: dim}, true
}

type wholeStreamer struct {
	rule   Rule
	dim    int
	inputs []tensor.Vector
}

func (s *wholeStreamer) Fold(lo, hi int, inputs []tensor.Vector) error {
	if lo != 0 || hi != s.dim || s.inputs != nil {
		return fmt.Errorf("gar: %s has no streaming path: it folds [0, %d) once, got [%d, %d)",
			s.rule.Name(), s.dim, lo, hi)
	}
	s.inputs = inputs
	return nil
}

func (s *wholeStreamer) Result() (tensor.Vector, error) { return s.rule.Aggregate(s.inputs) }

// SelectedIndices is the adapter's accountability signal: a SelectiveRule's
// kept inputs (computed on demand), nil for any other rule.
func (s *wholeStreamer) SelectedIndices() []int {
	sel, ok := s.rule.(SelectiveRule)
	if !ok {
		return nil
	}
	kept, _ := sel.SelectIndices(s.inputs) // an error leaves kept nil: nothing to report
	return kept
}

// Streaming support for the three deployment rules plus the mean baseline.
var (
	_ StreamingRule = Mean{}
	_ StreamingRule = Median{}
	_ StreamingRule = TrimmedMean{}
	_ StreamingRule = MultiKrum{}
)

// coordStreamer is the shared scaffolding of the coordinate-wise
// streamers: an output vector, tiling bookkeeping, and the per-fold input
// checks.
type coordStreamer struct {
	dim    int
	out    tensor.Vector // allocated by the first fold: a streamer still waiting for its quorum holds no vector
	folded int           // coordinates folded so far (ranges are disjoint, so a count suffices)
	ranges [][2]int      // the folded ranges, contiguous ones merged: in-order folding keeps one entry
}

func newCoordStreamer(dim int) coordStreamer { return coordStreamer{dim: dim} }

// claim validates one fold's range and inputs and marks the range folded.
func (c *coordStreamer) claim(lo, hi int, inputs []tensor.Vector) error {
	if lo < 0 || hi > c.dim || lo >= hi {
		return fmt.Errorf("gar: shard fold range [%d, %d) outside dimension %d", lo, hi, c.dim)
	}
	if len(inputs) == 0 {
		return fmt.Errorf("%w: empty shard quorum", ErrTooFewInputs)
	}
	for k, v := range inputs {
		if len(v) != hi-lo {
			return fmt.Errorf("gar: shard input %d has %d coordinates, range wants %d", k, len(v), hi-lo)
		}
	}
	grow := -1
	for i, r := range c.ranges {
		if lo < r[1] && r[0] < hi {
			return fmt.Errorf("gar: coordinate %d folded twice", max(lo, r[0]))
		}
		if r[1] == lo || r[0] == hi {
			grow = i
		}
	}
	if grow < 0 {
		c.ranges = append(c.ranges, [2]int{lo, hi})
	} else {
		r := &c.ranges[grow]
		r[0], r[1] = min(r[0], lo), max(r[1], hi)
	}
	if c.out == nil {
		// Unspecified contents: result refuses until the folds tile the
		// dimension, and every fold writes its whole range.
		c.out = tensor.Get(c.dim)
	}
	c.folded += hi - lo
	return nil
}

func (c *coordStreamer) result() (tensor.Vector, error) {
	if c.folded != c.dim {
		return nil, fmt.Errorf("gar: %d of %d coordinates folded", c.folded, c.dim)
	}
	return c.out, nil
}

// PinnedQuorum implements StreamingRule.
func (Mean) PinnedQuorum() bool { return false }

// NewStreamer implements StreamingRule.
func (Mean) NewStreamer(dim int) ShardStreamer { return &meanStreamer{newCoordStreamer(dim)} }

type meanStreamer struct{ coordStreamer }

func (s *meanStreamer) Fold(lo, hi int, inputs []tensor.Vector) error {
	if err := s.claim(lo, hi, inputs); err != nil {
		return err
	}
	dst := s.out[lo:hi]
	parallel.For(hi-lo, meanGrain, func(rlo, rhi int) {
		MeanChunkInto(dst, inputs, rlo, rhi)
	})
	return nil
}

func (s *meanStreamer) Result() (tensor.Vector, error) { return s.result() }

// PinnedQuorum implements StreamingRule.
func (Median) PinnedQuorum() bool { return false }

// NewStreamer implements StreamingRule.
func (Median) NewStreamer(dim int) ShardStreamer { return &medianStreamer{newCoordStreamer(dim)} }

type medianStreamer struct{ cs coordStreamer }

func (s *medianStreamer) Fold(lo, hi int, inputs []tensor.Vector) error {
	if err := s.cs.claim(lo, hi, inputs); err != nil {
		return err
	}
	return MedianInto(s.cs.out[lo:hi], inputs)
}

func (s *medianStreamer) Result() (tensor.Vector, error) { return s.cs.result() }

// PinnedQuorum implements StreamingRule.
func (TrimmedMean) PinnedQuorum() bool { return false }

// NewStreamer implements StreamingRule.
func (t TrimmedMean) NewStreamer(dim int) ShardStreamer {
	return &trimmedStreamer{cs: newCoordStreamer(dim), f: t.F}
}

type trimmedStreamer struct {
	cs coordStreamer
	f  int
}

func (s *trimmedStreamer) Fold(lo, hi int, inputs []tensor.Vector) error {
	if err := s.cs.claim(lo, hi, inputs); err != nil {
		return err
	}
	if n := len(inputs); n < 2*s.f+1 {
		return fmt.Errorf("%w: trimmed mean needs n ≥ 2f+1, got n=%d f=%d", ErrTooFewInputs, n, s.f)
	}
	trimmedInto(s.cs.out[lo:hi], inputs, s.f)
	return nil
}

func (s *trimmedStreamer) Result() (tensor.Vector, error) { return s.cs.result() }

// PinnedQuorum implements StreamingRule: Multi-Krum's pairwise distances
// correlate coordinates across shards, so every shard must carry the same
// ordered input set.
func (MultiKrum) PinnedQuorum() bool { return true }

// NewStreamer implements StreamingRule: the two-pass streaming path. Pass
// one runs during the receive stream — each arriving shard extends the
// running pairwise squared-distance accumulators, strictly in coordinate
// order (out-of-order shards wait in a small pending set), so the full
// O(n²·d) distance work overlaps the network instead of following it.
// Pass two, at Result, scores, selects and averages the retained shard
// payloads — bit-identical to the whole-vector rule because both extend
// the accumulators through the one kernel (accumulatePairwise: the serial
// SquaredDistance loop, resumable at shard boundaries) and share
// scoring, selection and mean. Memory note: because selection is global, every folded shard
// is retained until Result — the streamer's resident floor is O(q·d),
// unlike the coordinate-wise streamers' O(q·shard); the win over the
// whole-vector path is the n→q buffering drop and the overlapped
// distance pass.
func (m MultiKrum) NewStreamer(dim int) ShardStreamer {
	return &multiKrumStreamer{f: m.F, dim: dim, pending: make(map[int]foldChunk)}
}

// foldChunk is one folded shard retained for the selection mean.
type foldChunk struct {
	lo, hi int
	inputs []tensor.Vector
}

type multiKrumStreamer struct {
	f, dim  int
	n       int // input count, fixed by the first fold
	cursor  int // next coordinate the accumulators expect
	pending map[int]foldChunk
	chunks  []foldChunk // accumulated chunks, in coordinate order
	dist    [][]float64 // running Σ (xᵢ−xⱼ)², upper triangle
	kept    []int       // selected indices, set by Result
}

func (s *multiKrumStreamer) Fold(lo, hi int, inputs []tensor.Vector) error {
	if lo < 0 || hi > s.dim || lo >= hi {
		return fmt.Errorf("gar: shard fold range [%d, %d) outside dimension %d", lo, hi, s.dim)
	}
	if s.n == 0 {
		n := len(inputs)
		if n < 2*s.f+3 {
			return fmt.Errorf("%w: Krum needs n ≥ 2f+3, got n=%d f=%d", ErrTooFewInputs, n, s.f)
		}
		s.n = n
		s.dist = newDistMatrix(n)
	}
	if len(inputs) != s.n {
		return fmt.Errorf("gar: shard quorum size changed from %d to %d (Multi-Krum needs a pinned quorum)",
			s.n, len(inputs))
	}
	for k, v := range inputs {
		if len(v) != hi-lo {
			return fmt.Errorf("gar: shard input %d has %d coordinates, range wants %d", k, len(v), hi-lo)
		}
	}
	if lo < s.cursor {
		return fmt.Errorf("gar: coordinate %d folded twice", lo)
	}
	if _, dup := s.pending[lo]; dup {
		return fmt.Errorf("gar: coordinate %d folded twice", lo)
	}
	s.pending[lo] = foldChunk{lo: lo, hi: hi, inputs: inputs}
	// Extend the accumulators over the contiguous prefix now available.
	// Folding strictly in coordinate order is what keeps the running sums
	// bit-identical to the whole-vector SquaredDistance loop; shards that
	// completed early simply wait their turn (honest senders stream in
	// order, so the pending set stays small in practice).
	for {
		ch, ok := s.pending[s.cursor]
		if !ok {
			return nil
		}
		delete(s.pending, s.cursor)
		accumulatePairwise(s.dist, ch.inputs)
		s.chunks = append(s.chunks, ch)
		s.cursor = ch.hi
	}
}

func (s *multiKrumStreamer) Result() (tensor.Vector, error) {
	if s.n == 0 {
		return nil, fmt.Errorf("%w: no shards folded", ErrTooFewInputs)
	}
	if s.cursor != s.dim || len(s.pending) > 0 {
		return nil, fmt.Errorf("gar: %d of %d coordinates folded", s.cursor, s.dim)
	}
	mirrorUpper(s.dist)
	scores := scoresFromDist(s.dist, s.f)
	s.kept = smallestByScore(scores, s.n-s.f-2)
	out := tensor.Get(s.dim) // the chunks tile [0, dim): every coordinate is written below
	sel := make([]tensor.Vector, len(s.kept))
	for _, ch := range s.chunks {
		for k, i := range s.kept {
			sel[k] = ch.inputs[i]
		}
		dst := out[ch.lo:ch.hi]
		parallel.For(ch.hi-ch.lo, meanGrain, func(rlo, rhi int) {
			MeanChunkInto(dst, sel, rlo, rhi)
		})
	}
	return out, nil
}

// SelectedIndices returns the indices (into the pinned quorum order) of
// the inputs the rule's output averaged — Multi-Krum's accountability
// signal, available after Result. The streaming counterpart of
// SelectIndices.
func (s *multiKrumStreamer) SelectedIndices() []int { return s.kept }
