package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The bandwidth experiment prices the gradient-compression subsystem on
// both axes the paper's Figure 4 cares about: how many bytes one protocol
// step actually moves per link under each scheme (exact, machine-
// independent — this is what BENCH_wire.json pins), and what the lossy
// wire does to convergence under each GAR × attack pairing (Fig-4-style
// cells, run as a scenario matrix whose compress axis is the schemes
// measured). Codec rates are the root BenchmarkWire* rows; nothing here
// reads the clock.

// bandwidthDims are the payload dimensions measured: the tiny harness CNN
// and the paper's full 1,756,426-parameter Table-1 model.
var bandwidthDims = []int{2726, 1756426}

// bandwidthSchemes are the compression specs compared against raw framing.
var bandwidthSchemes = []string{"none", "float32", "topk:k=0.01"}

// bandwidthShard is the chunk-streaming shard size the wire rows assume —
// 2^16 coordinates (512 KiB raw frames, 27 shards at the paper dimension),
// the width of the root package's sharded wire benchmarks, so the
// compressed frames measured here are exactly the frames a live deployment
// at that shard size ships.
const bandwidthShard = 1 << 16

// BandwidthRow is one (dimension, scheme) wire measurement.
type BandwidthRow struct {
	// Dim is the logical vector dimension.
	Dim int `json:"dim"`
	// Scheme is the compression spec.
	Scheme string `json:"scheme"`
	// Shards is the number of chunk frames one vector becomes.
	Shards int `json:"shards"`
	// WireBytes is the total wire volume of one full-dimension vector (all
	// shard frames, headers included) at a steady-state step. Exact and
	// machine-independent: this is the field BENCH_wire.json comparisons
	// enforce.
	WireBytes int `json:"wire_bytes"`
	// RawBytes is the same vector under plain framing.
	RawBytes int `json:"raw_bytes"`
	// Reduction is RawBytes / WireBytes.
	Reduction float64 `json:"reduction"`
}

// BandwidthResult holds the wire rows and the convergence grid.
type BandwidthResult struct {
	Rows []BandwidthRow
	Grid *MatrixResult
}

// bandwidthGridSpec is the Fig-4-style convergence grid, run as a scenario
// matrix: the headline robust rules under the attack-free baseline and the
// strongest omniscient attack, on every compression scheme of the wire
// rows, with no faults.
var bandwidthGridSpec = MatrixSpec{
	Attacks:  []string{"none", "alie:z=1.5"},
	Rules:    []string{"multi-krum", "coordinate-median"},
	Faults:   []string{"none"},
	Compress: bandwidthSchemes,
}

// Bandwidth measures each compression scheme's wire volume at both
// dimensions, then runs the convergence grid. The byte counts are exact;
// the accuracy cells are bit-identical at any parallelism for a fixed seed.
func Bandwidth(s Scale) (*BandwidthResult, error) {
	rows, err := WireRows(s)
	if err != nil {
		return nil, err
	}
	grid, err := Matrix(s, bandwidthGridSpec)
	if err != nil {
		return nil, fmt.Errorf("bandwidth: %w", err)
	}
	return &BandwidthResult{Rows: rows, Grid: grid}, nil
}

// WireRows measures only the wire rows — the exact byte counts the
// committed BENCH_wire.json pins — without running the convergence grid.
func WireRows(s Scale) ([]BandwidthRow, error) {
	var rows []BandwidthRow
	rng := tensor.NewRNG(s.Seed)
	for _, dim := range bandwidthDims {
		vec := rng.NormVec(make(tensor.Vector, dim), 0, 1)
		for _, spec := range bandwidthSchemes {
			row, err := measureBandwidth(spec, vec)
			if err != nil {
				return nil, fmt.Errorf("bandwidth: %w", err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// shardSpans cuts [0, dim) into bandwidthShard-sized coordinate spans.
func shardSpans(dim int) [][2]int {
	var spans [][2]int
	for off := 0; off < dim; off += bandwidthShard {
		end := off + bandwidthShard
		if end > dim {
			end = dim
		}
		spans = append(spans, [2]int{off, end})
	}
	return spans
}

// shardMeta is the chunk extension for shard i of count n (zero value —
// whole-vector framing — when the vector fits one frame).
func shardMeta(i, n, off int) transport.ShardMeta {
	if n == 1 {
		return transport.ShardMeta{}
	}
	return transport.ShardMeta{Index: i, Count: n, Offset: off}
}

// measureBandwidth prices one (scheme, vector) pair: the exact wire bytes
// of the vector's first step under the scheme, all shard frames, against
// plain float64 framing. Each frame counted is decoded back, as a receiver
// would take it.
func measureBandwidth(spec string, vec tensor.Vector) (BandwidthRow, error) {
	cfg, err := compress.ParseSpec(spec)
	if err != nil {
		return BandwidthRow{}, err
	}
	spans := shardSpans(len(vec))
	row := BandwidthRow{Dim: len(vec), Scheme: spec, Shards: len(spans)}
	enc := compress.NewEncoder(cfg)
	var (
		frame []byte
		out   transport.Message
	)
	for i, sp := range spans {
		m := transport.Message{From: "wrk12", Kind: transport.KindGradient, Step: 1,
			Vec: vec[sp[0]:sp[1]], Shard: shardMeta(i, len(spans), sp[0])}
		row.RawBytes += transport.EncodedSize(&m)
		if err := transport.CompressMessage(enc, &m); err != nil {
			return BandwidthRow{}, err
		}
		if frame, err = transport.AppendMessage(frame[:0], &m); err != nil {
			return BandwidthRow{}, err
		}
		row.WireBytes += len(frame)
		if _, err := transport.DecodeMessage(frame, &out); err != nil {
			return BandwidthRow{}, err
		}
		if err := transport.DecompressMessage(&out); err != nil {
			return BandwidthRow{}, err
		}
	}
	row.Reduction = float64(row.RawBytes) / float64(row.WireBytes)
	return row, nil
}

// Format renders the wire table and the convergence grid.
func (r *BandwidthResult) Format() string {
	var b strings.Builder
	b.WriteString("# Bandwidth: wire volume per compression scheme\n")
	fmt.Fprintf(&b, "(shard %d coords; bytes are exact steady-state volume of one vector, all frames)\n", bandwidthShard)
	fmt.Fprintf(&b, "%-9s %-12s %-7s %-12s %-12s %-10s\n",
		"dim", "scheme", "shards", "wire bytes", "raw bytes", "reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9d %-12s %-7d %-12d %-12d %-10s\n",
			row.Dim, row.Scheme, row.Shards, row.WireBytes, row.RawBytes,
			fmt.Sprintf("%.2fx", row.Reduction))
	}

	b.WriteString("\n" + r.Grid.Format())
	return b.String()
}

// WireBenchJSON serialises the wire rows for committing as BENCH_wire.json.
func WireBenchJSON(rows []BandwidthRow) ([]byte, error) {
	out, err := json.MarshalIndent(struct {
		Note string         `json:"note"`
		Rows []BandwidthRow `json:"rows"`
	}{
		Note: "wire_bytes/raw_bytes are exact and enforced by -wire-check",
		Rows: rows,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CheckWireBench compares freshly measured rows against a committed
// BENCH_wire.json: the two must hold the same (dim, scheme) rows — none
// missing on either side — with identical shard counts and byte volumes.
func CheckWireBench(committed []byte, rows []BandwidthRow) error {
	var doc struct {
		Rows []BandwidthRow `json:"rows"`
	}
	if err := json.Unmarshal(committed, &doc); err != nil {
		return fmt.Errorf("bandwidth: bad committed bench file: %w", err)
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("bandwidth: committed bench file has no rows")
	}
	key := func(r BandwidthRow) string { return fmt.Sprintf("%d/%s", r.Dim, r.Scheme) }
	index := make(map[string]BandwidthRow, len(doc.Rows))
	for _, r := range doc.Rows {
		index[key(r)] = r
	}
	for _, got := range rows {
		k := key(got)
		want, ok := index[k]
		if !ok {
			return fmt.Errorf("bandwidth: measured row %s is not in the committed file (regenerate BENCH_wire.json to pin it)", k)
		}
		delete(index, k)
		if got.WireBytes != want.WireBytes || got.RawBytes != want.RawBytes || got.Shards != want.Shards {
			return fmt.Errorf("bandwidth: %s drifted from committed numbers: wire %d→%d, raw %d→%d, shards %d→%d (regenerate BENCH_wire.json if the wire format changed intentionally)",
				k, want.WireBytes, got.WireBytes, want.RawBytes, got.RawBytes, want.Shards, got.Shards)
		}
	}
	for _, r := range doc.Rows {
		if _, left := index[key(r)]; left {
			return fmt.Errorf("bandwidth: committed row %s no longer measured", key(r))
		}
	}
	return nil
}
