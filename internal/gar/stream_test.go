package gar

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// streamRules are the rules with a shard-streaming path, at an f matching
// the 9-input quorums the tests feed.
func streamRules() []StreamingRule {
	return []StreamingRule{Mean{}, Median{}, TrimmedMean{F: 2}, MultiKrum{F: 2}}
}

func streamInputs(t *testing.T, n, d int) []tensor.Vector {
	t.Helper()
	rng := tensor.NewRNG(7)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormVec(make(tensor.Vector, d), 0, 1)
	}
	return inputs
}

// foldShards drives a streamer over the size-derived shards of inputs in
// the given shard order (a permutation of shard indices).
func foldShards(t *testing.T, st ShardStreamer, inputs []tensor.Vector, d, size int, order []int) tensor.Vector {
	t.Helper()
	for _, s := range order {
		lo := s * size
		hi := lo + size
		if hi > d {
			hi = d
		}
		shard := make([]tensor.Vector, len(inputs))
		for k, v := range inputs {
			shard[k] = v[lo:hi]
		}
		if err := st.Fold(lo, hi, shard); err != nil {
			t.Fatalf("fold shard %d: %v", s, err)
		}
	}
	out, err := st.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return out
}

// TestStreamBitIdentity is the sharded-vs-whole regression of the chunked
// streaming path: for every streaming rule, every shard size (one
// coordinate, a prime that does not divide d, a non-dividing power of two,
// and the whole dimension), every fold order, and both serial and parallel
// kernels, the streamed result must carry the exact bits of the
// whole-vector Aggregate.
func TestStreamBitIdentity(t *testing.T) {
	const (
		n = 9
		d = 257
	)
	inputs := streamInputs(t, n, d)
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		for _, rule := range streamRules() {
			want, err := rule.Aggregate(inputs)
			if err != nil {
				t.Fatalf("workers=%d %s: aggregate: %v", workers, rule.Name(), err)
			}
			for _, size := range []int{1, 7, 64, d} {
				shards := (d + size - 1) / size
				orders := [][]int{make([]int, shards), make([]int, shards)}
				for s := 0; s < shards; s++ {
					orders[0][s] = s          // in order: the honest streaming schedule
					orders[1][shards-1-s] = s // fully reversed: worst-case reordering
				}
				for oi, order := range orders {
					got := foldShards(t, rule.NewStreamer(d), inputs, d, size, order)
					if len(got) != d {
						t.Fatalf("workers=%d %s size=%d: got %d coordinates", workers, rule.Name(), size, len(got))
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("workers=%d %s size=%d order=%d: coordinate %d differs: %v vs %v",
								workers, rule.Name(), size, oi, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamSelectedIndices checks that the streaming Multi-Krum selection
// agrees with the whole-vector SelectIndices — the accountability signal
// must not change under sharding.
func TestStreamSelectedIndices(t *testing.T) {
	const (
		n = 9
		d = 64
	)
	inputs := streamInputs(t, n, d)
	rule := MultiKrum{F: 2}
	want, err := rule.SelectIndices(inputs)
	if err != nil {
		t.Fatal(err)
	}
	st := rule.NewStreamer(d).(*multiKrumStreamer)
	order := []int{3, 0, 2, 1} // 4 shards of 16, deliberately out of order
	foldShards(t, st, inputs, d, 16, order)
	got := st.SelectedIndices()
	if len(got) != len(want) {
		t.Fatalf("selected %d indices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("selection differs at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestStreamErrors exercises the misuse guards: missing shards, double
// folds, range escapes and quorum-size changes must surface as errors, not
// silent corruption.
func TestStreamErrors(t *testing.T) {
	const d = 32
	inputs := streamInputs(t, 9, d)
	half := make([]tensor.Vector, len(inputs))
	for k, v := range inputs {
		half[k] = v[:16]
	}

	for _, rule := range streamRules() {
		st := rule.NewStreamer(d)
		if err := st.Fold(0, 16, half); err != nil {
			t.Fatalf("%s: first fold: %v", rule.Name(), err)
		}
		if _, err := st.Result(); err == nil {
			t.Fatalf("%s: result with a missing shard succeeded", rule.Name())
		}

		st = rule.NewStreamer(d)
		if err := st.Fold(0, 16, half); err != nil {
			t.Fatal(err)
		}
		if err := st.Fold(0, 16, half); err == nil {
			t.Fatalf("%s: double fold succeeded", rule.Name())
		}

		st = rule.NewStreamer(d)
		if err := st.Fold(24, 48, half); err == nil {
			t.Fatalf("%s: fold beyond the dimension succeeded", rule.Name())
		}
	}

	// Multi-Krum must reject a quorum whose membership size changes between
	// shards — the pinned-quorum contract.
	st := MultiKrum{F: 2}.NewStreamer(d)
	if err := st.Fold(0, 16, half); err != nil {
		t.Fatal(err)
	}
	if err := st.Fold(16, 32, half[:8]); err == nil {
		t.Fatal("multi-krum accepted a shrunken shard quorum")
	}
}

// TestStreamerForAdaptsNonStreamingRules: a rule without a streaming path
// is reduced through the one-shard adapter — one fold of the whole vectors,
// Result the rule's own Aggregate, a selective rule's kept set on demand —
// and the adapter refuses anything but that one whole fold.
func TestStreamerForAdaptsNonStreamingRules(t *testing.T) {
	const n, d = 9, 23
	inputs := streamInputs(t, n, d)
	for _, rule := range []Rule{Krum{F: 2}, Bulyan{F: 1}, GeoMed{}, MDA{F: 2}} {
		st, pinned := StreamerFor(rule, d)
		if !pinned {
			t.Fatalf("%s: adapter must ask for a pinned quorum", rule.Name())
		}
		if err := st.Fold(0, d-1, inputs); err == nil {
			t.Fatalf("%s: adapter folded a partial range", rule.Name())
		}
		got := foldShards(t, st, inputs, d, d, []int{0})
		want, err := rule.Aggregate(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: coordinate %d = %v, want %v", rule.Name(), i, got[i], want[i])
			}
		}
		if err := st.Fold(0, d, inputs); err == nil {
			t.Fatalf("%s: adapter folded twice", rule.Name())
		}
		kept := st.(interface{ SelectedIndices() []int }).SelectedIndices()
		sel, selective := rule.(SelectiveRule)
		if !selective {
			if kept != nil {
				t.Fatalf("%s: kept %v from a rule that selects nothing", rule.Name(), kept)
			}
			continue
		}
		wantKept, err := sel.SelectIndices(inputs)
		if err != nil || fmt.Sprint(kept) != fmt.Sprint(wantKept) {
			t.Fatalf("%s: kept %v, want %v (%v)", rule.Name(), kept, wantKept, err)
		}
	}
	// A streaming rule gets its own streamer and membership mode.
	if st, pinned := StreamerFor(Median{}, d); pinned {
		t.Fatalf("median asked for a pinned quorum (%T)", st)
	}
}
