package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// The wire-throughput experiment prices the transport hot path: every
// GuanYu step ships O(n·n̄) full-dimension vectors, so the codec's
// encode+decode rate is the ceiling on live steps/sec long before the
// network or the arithmetic saturates. The experiment measures the binary
// frame codec (transport/codec.go) on protocol-sized payloads and derives
// the serialization-bound step rate for representative cluster shapes —
// codec cost only; network transfer and gradient compute are deliberately
// excluded, so the numbers are the protocol's serialization ceiling, not an
// end-to-end forecast. (The comparison against the reflection-based
// encoding/gob framing the codec replaced — 5–12× — was measured when it
// was retired and is frozen as a dated row in EXPERIMENTS.md.)

// throughputDims are the payload dimensions measured: the tiny harness CNN
// the CI-scale experiments train, and the paper's full 1,756,426-parameter
// Table-1 model.
var throughputDims = []int{2726, 1756426}

// throughputShapes are the (servers, workers) deployments priced — the
// paper's testbed shape (6, 18) plus two smaller steps toward it.
var throughputShapes = [][2]int{{4, 8}, {6, 12}, {6, 18}}

// ThroughputRow is one (cluster shape, payload dimension) measurement.
type ThroughputRow struct {
	// Servers and Workers give the deployment shape n, n̄.
	Servers, Workers int
	// Dim is the payload dimension (coordinates per message).
	Dim int
	// MsgsPerStep counts the full-dimension messages one protocol step
	// moves: n·n̄ parameter broadcasts, n̄·n gradient broadcasts, and the
	// n·(n−1) contraction-round exchange.
	MsgsPerStep int
	// MBPerStep is the binary wire volume of one step, in megabytes.
	MBPerStep float64
	// BinMBps is the measured encode+decode throughput (payload megabytes
	// per second through one core).
	BinMBps float64
	// BinStepsPerSec is the serialization-bound step rate
	// 1 / (MsgsPerStep · secPerMsg).
	BinStepsPerSec float64
}

// codecReps sizes a measurement batch: enough messages that per-trial
// setup amortises away, without
// making the paper-dimension rows take seconds per trial.
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

// Throughput measures the wire codec and derives the serialization-bound
// protocol ceiling for each cluster shape. Timing-based by nature: numbers
// vary with the machine, the shape scaling does not.
func Throughput(s Scale) ([]ThroughputRow, error) {
	rng := tensor.NewRNG(s.Seed)
	rows := make([]ThroughputRow, 0, len(throughputDims)*len(throughputShapes))
	for _, dim := range throughputDims {
		msg := transport.Message{
			From: "wrk12",
			Kind: transport.KindGradient,
			Step: 7,
			Vec:  rng.NormVec(make(tensor.Vector, dim), 0, 1),
		}
		reps := codecReps(dim)

		// Binary: reused frame buffer, reused decode target — the steady
		// state of a long-lived connection (see the codec's ownership
		// contract).
		frame, err := transport.AppendMessage(nil, &msg)
		if err != nil {
			return nil, fmt.Errorf("throughput: %w", err)
		}
		var out transport.Message
		binSec := measureCodec(reps, func(reps int) {
			for i := 0; i < reps; i++ {
				frame, _ = transport.AppendMessage(frame[:0], &msg)
				if _, err := transport.DecodeMessage(frame, &out); err != nil {
					panic(err)
				}
			}
		})

		mb := float64(transport.EncodedSize(&msg)) / 1e6
		for _, shape := range throughputShapes {
			n, w := shape[0], shape[1]
			msgs := n*w + w*n + n*(n-1)
			rows = append(rows, ThroughputRow{
				Servers: n, Workers: w, Dim: dim,
				MsgsPerStep:    msgs,
				MBPerStep:      float64(msgs) * mb,
				BinMBps:        mb / binSec,
				BinStepsPerSec: 1 / (float64(msgs) * binSec),
			})
		}
	}
	return rows, nil
}

// FormatThroughput renders the wire-throughput table.
func FormatThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	b.WriteString("# Wire throughput: serialization-bound protocol ceiling of the binary codec\n")
	b.WriteString("(one core, encode+decode, per-step volume = n·n̄ + n̄·n + n·(n−1) messages)\n")
	fmt.Fprintf(&b, "%-9s %-8s %-9s %-10s %-9s %-10s %-12s\n",
		"dim", "servers", "workers", "msgs/step", "MB/step", "bin MB/s", "bin steps/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9d %-8d %-9d %-10d %-9.2f %-10.0f %-12.2f\n",
			r.Dim, r.Servers, r.Workers, r.MsgsPerStep, r.MBPerStep, r.BinMBps, r.BinStepsPerSec)
	}
	return b.String()
}
