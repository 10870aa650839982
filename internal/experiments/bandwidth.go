package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gar"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The bandwidth experiment prices the gradient-compression subsystem on
// both axes the paper's Figure 4 cares about: how many bytes one protocol
// step actually moves per link under each scheme (exact, machine-
// independent — this is what BENCH_wire.json pins), and what the lossy
// wire does to convergence under each GAR × attack pairing (Fig-4-style
// cells on the fast Blob workload). Serialization-bound steps/sec rides
// along from the same timed encode→frame→decode loop, so the table shows
// whether a scheme buys its byte reduction with codec time.

// bandwidthDims are the payload dimensions measured: the tiny harness CNN
// and the paper's full 1,756,426-parameter Table-1 model.
var bandwidthDims = []int{2726, 1756426}

// bandwidthSchemes are the compression specs compared against raw framing.
var bandwidthSchemes = []string{"none", "float32", "delta", "topk:k=0.01"}

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
	// MBps is the logical (raw-equivalent) megabytes per second one core
	// moves through encode → frame → decode. Timing-based, advisory.
	MBps float64 `json:"mbps"`
	// StepsPerSec is the serialization-bound step ceiling at the paper's
	// (6 servers, 18 workers) testbed shape. Timing-based, advisory.
	StepsPerSec float64 `json:"steps_per_sec"`
}

// BandwidthCell is one (scheme, rule, attack) convergence outcome.
type BandwidthCell struct {
	// Scheme, Rule and Attack identify the cell; Attack "none" is the
	// attack-free baseline.
	Scheme, Rule, Attack string
	// FinalAccuracy is the run's final test accuracy (0 when Failed).
	FinalAccuracy float64
	// Failed is empty for a completed run, otherwise the breakdown class
	// (same taxonomy as the scenario matrix).
	Failed string
}

// BandwidthResult holds the wire rows and the convergence grid.
type BandwidthResult struct {
	Rows  []BandwidthRow
	Cells []BandwidthCell
}

// bandwidthRules and bandwidthAttacks span the Fig-4-style convergence
// grid: the headline robust rules under the attack-free baseline and the
// strongest omniscient attack.
var (
	bandwidthRules   = []string{"multi-krum", "coordinate-median"}
	bandwidthAttacks = []string{"none", "alie:z=1.5"}
)

// Bandwidth measures each compression scheme's wire volume and codec rate
// at both dimensions, then runs the convergence grid. The byte counts are
// deterministic; the rates are machine-dependent; the accuracy cells are
// bit-identical at any parallelism for a fixed seed.
func Bandwidth(s Scale) (*BandwidthResult, error) {
	rows, err := WireRows(s)
	if err != nil {
		return nil, err
	}
	cells, err := bandwidthGrid(s)
	if err != nil {
		return nil, err
	}
	return &BandwidthResult{Rows: rows, Cells: cells}, nil
}

// WireRows measures only the wire rows — the exact byte counts the
// committed BENCH_wire.json pins plus the advisory codec rates — without
// running the convergence grid.
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

// codecReps sizes a measurement batch: enough messages that per-trial
// setup amortises away, without making the paper-dimension rows take
// seconds per trial.
func codecReps(dim int) int {
	reps := 4_000_000 / dim
	if reps < 4 {
		reps = 4
	}
	return reps
}

// measureCodec times fn (reps encode+decode passes over one message) and
// returns seconds per message, taking the best of three trials so a
// scheduler hiccup cannot masquerade as codec cost.
func measureCodec(reps int, fn func(reps int)) float64 {
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		fn(reps)
		if sec := time.Since(start).Seconds() / float64(reps); trial == 0 || sec < best {
			best = sec
		}
	}
	return best
}

// measureBandwidth prices one (scheme, vector) pair: exact steady-state
// wire bytes, then a timed encode→frame→decode loop for the advisory rates.
func measureBandwidth(spec string, vec tensor.Vector) (BandwidthRow, error) {
	cfg, err := compress.ParseSpec(spec)
	if err != nil {
		return BandwidthRow{}, err
	}
	dim := len(vec)
	spans := shardSpans(dim)
	row := BandwidthRow{Dim: dim, Scheme: spec, Shards: len(spans)}

	// Raw framing volume: every shard as a plain float64 frame.
	for i, sp := range spans {
		m := transport.Message{From: "wrk12", Kind: transport.KindGradient, Step: 1,
			Vec: vec[sp[0]:sp[1]], Shard: shardMeta(i, len(spans), sp[0])}
		row.RawBytes += transport.EncodedSize(&m)
	}

	enc := compress.NewEncoder(cfg)
	dec := compress.NewDecoder()
	// roundTrip ships the whole vector once at the given step, returning
	// the wire bytes. Encoder and decoder advance in lockstep, exactly as a
	// connection's paired codec state does.
	frame := make([]byte, 0, 9*bandwidthShard)
	var out transport.Message
	roundTrip := func(step int) (int, error) {
		total := 0
		for i, sp := range spans {
			m := transport.Message{From: "wrk12", Kind: transport.KindGradient, Step: step,
				Vec: vec[sp[0]:sp[1]], Shard: shardMeta(i, len(spans), sp[0])}
			if err := transport.CompressMessage(enc, &m); err != nil {
				return 0, err
			}
			frame, err = transport.AppendMessage(frame[:0], &m)
			if err != nil {
				return 0, err
			}
			total += len(frame)
			if _, err := transport.DecodeMessage(frame, &out); err != nil {
				return 0, err
			}
			if err := transport.DecompressMessage(dec, &out); err != nil {
				return 0, err
			}
		}
		return total, nil
	}

	// Step 0 is the delta keyframe; step 1 is the steady state whose bytes
	// the committed BENCH_wire.json pins.
	if _, err := roundTrip(0); err != nil {
		return BandwidthRow{}, err
	}
	if row.WireBytes, err = roundTrip(1); err != nil {
		return BandwidthRow{}, err
	}
	row.Reduction = float64(row.RawBytes) / float64(row.WireBytes)

	// Advisory codec rate over the logical (raw-equivalent) volume. Steps
	// keep advancing so delta streams pay their keyframe cadence honestly.
	reps := codecReps(dim)
	step := 2
	sec := measureCodec(reps, func(reps int) {
		for i := 0; i < reps; i++ {
			if _, err := roundTrip(step); err != nil {
				panic(err)
			}
			step++
		}
	})
	logicalMB := float64(8*dim) / 1e6
	row.MBps = logicalMB / sec
	n, w := 6, 18 // the paper's testbed shape
	msgs := n*w + w*n + n*(n-1)
	row.StepsPerSec = 1 / (float64(msgs) * sec)
	return row, nil
}

// bandwidthGrid runs the Fig-4-style convergence cells: every (scheme,
// rule, attack) triple as an independent deterministic simulation on the
// Blob workload, concurrent on the shared pool.
func bandwidthGrid(s Scale) ([]BandwidthCell, error) {
	var cells []BandwidthCell
	for _, spec := range bandwidthSchemes {
		for _, rule := range bandwidthRules {
			for _, att := range bandwidthAttacks {
				cells = append(cells, BandwidthCell{Scheme: spec, Rule: rule, Attack: att})
			}
		}
	}
	// Resolve specs up front so typos fail loudly.
	for _, spec := range bandwidthSchemes {
		if _, err := compress.ParseSpec(spec); err != nil {
			return nil, fmt.Errorf("bandwidth: %w", err)
		}
	}
	for _, r := range bandwidthRules {
		if _, err := gar.FromName(r, core.PaperByzWorkers); err != nil {
			return nil, fmt.Errorf("bandwidth: %w", err)
		}
	}
	for _, a := range bandwidthAttacks {
		if a == "none" {
			continue
		}
		if _, err := attack.FromSpec(a, s.Seed); err != nil {
			return nil, fmt.Errorf("bandwidth: %w", err)
		}
	}

	tasks := make([]func() error, len(cells))
	for i := range cells {
		cell := &cells[i]
		tasks[i] = func() error {
			runBandwidthCell(s, cell)
			return nil // breakdowns are results, not errors
		}
	}
	if err := parallel.Do(tasks...); err != nil {
		return nil, err
	}
	return cells, nil
}

// runBandwidthCell executes one convergence cell, writing the outcome in.
func runBandwidthCell(s Scale, cell *BandwidthCell) {
	comp, _ := compress.ParseSpec(cell.Scheme)
	rule, _ := gar.FromName(cell.Rule, core.PaperByzWorkers)

	w := core.BlobWorkload(s.Examples, s.Seed)
	cfg := core.Config{
		Mode:  core.ModeGuanYu,
		Model: w.Model, Train: w.Train, Test: w.Test,
		NumServers: core.PaperServers, FServers: 0,
		NumWorkers: core.PaperWorkers, FWorkers: core.PaperByzWorkers,
		Steps: s.Steps, Batch: s.SmallBatch,
		Rule:        rule,
		Compression: comp,
		Seed:        s.Seed,
	}
	if cell.Attack != "none" {
		mk, _ := attack.FromSpec(cell.Attack, s.Seed+500)
		cfg = core.WithByzantineWorkers(cfg, core.PaperByzWorkers, mk)
	}

	res, err := core.Run(cfg)
	switch {
	case err != nil && strings.Contains(err.Error(), "quorum"):
		cell.Failed = "no-quorum"
	case err != nil:
		cell.Failed = "error"
	case !tensor.IsFinite(res.Final):
		cell.Failed = "non-finite"
	default:
		cell.FinalAccuracy = res.FinalAccuracy
	}
}

// Format renders the wire table and the convergence grid.
func (r *BandwidthResult) Format() string {
	var b strings.Builder
	b.WriteString("# Bandwidth: wire volume and codec rate per compression scheme\n")
	fmt.Fprintf(&b, "(shard %d coords; bytes are exact steady-state volume of one vector, all frames;\n", bandwidthShard)
	b.WriteString(" MB/s is logical raw-equivalent volume through encode→frame→decode on one core;\n")
	b.WriteString(" steps/s is the serialization ceiling at the paper's 6×18 testbed)\n")
	fmt.Fprintf(&b, "%-9s %-12s %-7s %-12s %-12s %-10s %-10s %-10s\n",
		"dim", "scheme", "shards", "wire bytes", "raw bytes", "reduction", "MB/s", "steps/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9d %-12s %-7d %-12d %-12d %-10s %-10.0f %-10.2f\n",
			row.Dim, row.Scheme, row.Shards, row.WireBytes, row.RawBytes,
			fmt.Sprintf("%.2fx", row.Reduction), row.MBps, row.StepsPerSec)
	}

	b.WriteString("\n## Convergence under the lossy wire: final accuracy by scheme (GAR × attack)\n")
	fmt.Fprintf(&b, "(%d byz workers of %d when attacked; %d servers, all honest)\n",
		core.PaperByzWorkers, core.PaperWorkers, core.PaperServers)
	fmt.Fprintf(&b, "%-20s %-14s", "rule", "attack")
	for _, spec := range bandwidthSchemes {
		fmt.Fprintf(&b, " %-12s", spec)
	}
	b.WriteByte('\n')
	for _, rule := range bandwidthRules {
		for _, att := range bandwidthAttacks {
			fmt.Fprintf(&b, "%-20s %-14s", rule, att)
			for _, spec := range bandwidthSchemes {
				c := r.cell(spec, rule, att)
				if c == nil {
					fmt.Fprintf(&b, " %-12s", "-")
				} else if c.Failed != "" {
					fmt.Fprintf(&b, " %-12s", "break:"+c.Failed)
				} else {
					fmt.Fprintf(&b, " %-12.4f", c.FinalAccuracy)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (r *BandwidthResult) cell(scheme, rule, att string) *BandwidthCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Scheme == scheme && c.Rule == rule && c.Attack == att {
			return c
		}
	}
	return nil
}

// WireBenchJSON serialises the wire rows for committing as BENCH_wire.json.
// Byte counts are exact; the MB/s and steps/s fields are advisory and
// ignored by CheckWireBench.
func WireBenchJSON(rows []BandwidthRow) ([]byte, error) {
	out, err := json.MarshalIndent(struct {
		Note string         `json:"note"`
		Rows []BandwidthRow `json:"rows"`
	}{
		Note: "wire_bytes/raw_bytes are exact and enforced by -wire-check; mbps/steps_per_sec are machine-dependent and advisory",
		Rows: rows,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CheckWireBench compares freshly measured rows against a committed
// BENCH_wire.json: every committed (dim, scheme) row must exist with
// identical shard count and byte volumes. Rates are not compared.
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
	index := make(map[string]BandwidthRow, len(rows))
	for _, r := range rows {
		index[fmt.Sprintf("%d/%s", r.Dim, r.Scheme)] = r
	}
	for _, want := range doc.Rows {
		key := fmt.Sprintf("%d/%s", want.Dim, want.Scheme)
		got, ok := index[key]
		if !ok {
			return fmt.Errorf("bandwidth: committed row %s no longer measured", key)
		}
		if got.WireBytes != want.WireBytes || got.RawBytes != want.RawBytes || got.Shards != want.Shards {
			return fmt.Errorf("bandwidth: %s drifted from committed numbers: wire %d→%d, raw %d→%d, shards %d→%d (regenerate BENCH_wire.json if the wire format changed intentionally)",
				key, want.WireBytes, got.WireBytes, want.RawBytes, got.RawBytes, want.Shards, got.Shards)
		}
	}
	return nil
}
