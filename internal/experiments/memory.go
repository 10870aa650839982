package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/gar"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The memory experiment prices the receive path's buffering: at the
// one-shard layout (whole-vector framing) the Collector holds O(q·d) payload
// bytes before aggregation can even start (~70 MB at the paper's
// 1,756,426-coordinate dimension with q=5), and every byte of aggregation
// work waits for the last byte of network receive — the "non-optimised
// low-level runtime" overhead the paper blames for ≈65% of GuanYu's
// slowdown (Section 5.3). At a sharded layout the same collector caps the
// buffer at O(q·shard) and folds each shard into the aggregation the moment
// its quorum fills, so the receive stream and the aggregation arithmetic
// overlap. This experiment replays one identical arrival schedule through
// one collector at the two layouts and reports peak buffered bytes, the
// receive→aggregate overlap, and a bit-identity check of the two aggregates.

// memoryDims are the payload dimensions measured: the tiny harness CNN and
// the paper's full Table-1 model.
var memoryDims = []int{2726, 1756426}

// memorySenders and memoryQuorum shape the replayed round: n senders
// racing into a first-q quorum — the contraction round's shape at the
// paper's server population, with the q=5 quorum the acceptance target
// uses.
const (
	memorySenders = 8
	memoryQuorum  = 5
)

// defaultShardSize picks the measured shard width when the caller passes
// none: 64 Ki coordinates (512 KiB frames) at full scale, a sixteenth of
// the dimension for models smaller than one such shard.
func defaultShardSize(dim int) int {
	if dim > 1<<16 {
		return 1 << 16
	}
	size := dim / 16
	if size < 1 {
		size = 1
	}
	return size
}

// MemoryRow is one dimension's whole-vs-sharded measurement.
type MemoryRow struct {
	// Dim is the payload dimension; ShardSize the measured shard width;
	// Shards the resulting shard count.
	Dim, ShardSize, Shards int
	// Senders and Quorum are n and q of the replayed round.
	Senders, Quorum int
	// WholePeakBytes and ShardedPeakBytes are the collector's high-water
	// buffer marks at the one-shard and the sharded layout, over the
	// identical arrival schedule.
	WholePeakBytes, ShardedPeakBytes int
	// Ratio is ShardedPeakBytes / WholePeakBytes.
	Ratio float64
	// OverlapFolds of Folds shard aggregations completed while frames were
	// still arriving at the sharded layout (the one-shard layout has a
	// single fold, after its quorum's last byte); OverlapFrac is their
	// fraction.
	Folds, OverlapFolds int
	OverlapFrac         float64
	// BitIdentical reports that the sharded aggregate carried the exact
	// bits of the whole-vector aggregate.
	BitIdentical bool
}

// memoryFeed builds one deterministic input set: n whole vectors.
func memoryFeed(rng *tensor.RNG, dim, senders int) []tensor.Vector {
	vecs := make([]tensor.Vector, senders)
	for i := range vecs {
		vecs[i] = rng.NormVec(make(tensor.Vector, dim), 0, 1)
	}
	return vecs
}

// memoryReplay ships vecs to one receiver as frames of the given shard size
// (0: whole vectors) in round-robin order — shard 0 from every sender, then
// shard 1, and so on, the steady state of n peers streaming concurrently
// over fair links — and reduces the first-q quorum through the streaming
// median at that layout. It returns the collector's peak buffered bytes,
// how many of the folds ran while frames were still arriving, and the
// aggregate.
func memoryReplay(vecs []tensor.Vector, size int) (peak, folds, overlap int, out tensor.Vector, err error) {
	const timeout = 30 * time.Second
	net := transport.NewChanNetwork(nil)
	defer net.Close()
	recv, err := net.Register("recv")
	if err != nil {
		return 0, 0, 0, nil, err
	}
	layout := transport.NewShardLayout(len(vecs[0]), size)
	eps := make([]transport.Endpoint, len(vecs))
	frames := make([][]transport.Message, len(vecs))
	for i := range vecs {
		if eps[i], err = net.Register(fmt.Sprintf("s%d", i)); err != nil {
			return 0, 0, 0, nil, err
		}
		frames[i] = transport.SplitMessage(transport.Message{
			Kind: transport.KindPeerParams, Step: 0, Vec: vecs[i],
		}, size)
	}
	for shard := 0; shard < layout.Count(); shard++ {
		for i, ep := range eps {
			if err := ep.Send("recv", frames[i][shard]); err != nil {
				return 0, 0, 0, nil, err
			}
		}
	}
	col := transport.NewCollector(recv, layout)
	streamer := gar.Median{}.NewStreamer(layout.Dim)
	total := len(vecs) * layout.Count()
	fold := func(lo, hi int, _ []string, inputs []tensor.Vector) error {
		folds++
		if col.StoredFrames() < total {
			overlap++
		}
		return streamer.Fold(lo, hi, inputs)
	}
	if _, err := col.Collect(transport.KindPeerParams, 0, memoryQuorum,
		nil, "", false, fold, timeout); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("memory: collect at shard size %d: %w", size, err)
	}
	out, err = streamer.Result()
	return col.Metrics.PeakBytes(), folds, overlap, out, err
}

// Memory replays the schedule through the collector at both layouts at
// every measured dimension. shardSize overrides the per-dimension default
// when positive (the -shard flag on guanyu-bench). Peak bytes and the
// overlap count are deterministic — they derive from one FIFO arrival order
// — while the aggregates must match bit-for-bit.
func Memory(s Scale, shardSize int) ([]MemoryRow, error) {
	rng := tensor.NewRNG(s.Seed)
	rows := make([]MemoryRow, 0, len(memoryDims))
	for _, dim := range memoryDims {
		size := shardSize
		if size <= 0 {
			size = defaultShardSize(dim)
		}
		if size > dim {
			size = dim
		}
		vecs := memoryFeed(rng, dim, memorySenders)

		// One-shard layout: every sender ships its full vector; the
		// collector buffers q of them before the rule sees a single byte.
		wholePeak, _, _, want, err := memoryReplay(vecs, 0)
		if err != nil {
			return nil, err
		}
		// Sharded layout: the same vectors as round-robin chunk frames; each
		// shard folds into the streaming median as its quorum fills, while
		// later shards are still arriving.
		shardedPeak, folds, overlap, got, err := memoryReplay(vecs, size)
		if err != nil {
			return nil, err
		}

		identical := len(got) == len(want)
		for i := 0; identical && i < len(got); i++ {
			identical = math.Float64bits(got[i]) == math.Float64bits(want[i])
		}
		rows = append(rows, MemoryRow{
			Dim: dim, ShardSize: size, Shards: folds, // one fold per shard
			Senders: memorySenders, Quorum: memoryQuorum,
			WholePeakBytes: wholePeak, ShardedPeakBytes: shardedPeak,
			Ratio:        float64(shardedPeak) / float64(wholePeak),
			Folds:        folds,
			OverlapFolds: overlap,
			OverlapFrac:  float64(overlap) / float64(folds),
			BitIdentical: identical,
		})
	}
	return rows, nil
}

// FormatMemory renders the peak-memory table.
func FormatMemory(rows []MemoryRow) string {
	var b strings.Builder
	b.WriteString("# Collector memory: whole-vector vs chunked streaming (first-q quorum, coordinate-median)\n")
	fmt.Fprintf(&b, "(n=%d senders racing into q=%d, one FIFO arrival schedule replayed through one collector at both layouts)\n",
		memorySenders, memoryQuorum)
	fmt.Fprintf(&b, "%-9s %-9s %-8s %-14s %-14s %-8s %-9s %-9s\n",
		"dim", "shard", "shards", "whole peak", "sharded peak", "ratio", "overlap", "bits")
	for _, r := range rows {
		bits := "IDENTICAL"
		if !r.BitIdentical {
			bits = "DIFFER"
		}
		fmt.Fprintf(&b, "%-9d %-9d %-8d %-14s %-14s %-8.3f %-9s %-9s\n",
			r.Dim, r.ShardSize, r.Shards,
			formatBytes(r.WholePeakBytes), formatBytes(r.ShardedPeakBytes),
			r.Ratio,
			fmt.Sprintf("%d/%d", r.OverlapFolds, r.Folds), bits)
	}
	b.WriteString("expected: sharded peak ≤ 25% of whole at the paper dimension; overlap ≈ all folds; bits identical\n")
	return b.String()
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
