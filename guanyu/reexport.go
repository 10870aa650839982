package guanyu

import (
	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Compression is a validated wire-compression configuration; build one from
// a spec string with ParseCompression (schemes: none, float32, topk:k=F)
// and install it with WithCompression or NodeConfig.Compression.
type Compression = compress.Config

// ParseCompression parses a compression spec string ("none", "float32",
// "topk:k=0.01", ...). The empty string means none.
func ParseCompression(spec string) (Compression, error) {
	return compress.ParseSpec(spec)
}

// Suspicion accumulates per-sender exclusion statistics from selective
// aggregation rules: repeatedly excluded senders are likely Byzantine. Share
// one across a Live deployment with WithSuspicion and read
// Suspicion.Ranking after the run.
type Suspicion = stats.Suspicion

// SuspicionRank is one row of Suspicion.Ranking.
type SuspicionRank = stats.SuspicionRank

// NewSuspicion builds an empty accountability accumulator.
func NewSuspicion() *Suspicion { return stats.NewSuspicion() }

// DelayFunc returns the artificial delivery delay for a message between two
// named nodes; install one with WithDelay to inject asynchrony into the
// Live in-process network.
type DelayFunc = transport.DelayFunc

// LatencyModel samples per-message network delays: a base latency,
// log-normal jitter, bandwidth cost, and optional per-node slowdowns
// (stragglers).
type LatencyModel = transport.LatencyModel

// NewLatencyModel builds a latency model. base is the one-way latency in
// seconds, jitterSigma the log-normal σ of its multiplicative jitter,
// bytesPerSecond the link bandwidth (0 = infinite).
func NewLatencyModel(base, jitterSigma, bytesPerSecond float64, seed uint64) *LatencyModel {
	return transport.NewLatencyModel(base, jitterSigma, bytesPerSecond, seed)
}

// ServerID returns the canonical network ID of parameter server i ("ps<i>"),
// shared by both runtimes so logs, attacks and address books line up.
func ServerID(i int) string { return serverID(i) }

// WorkerID returns the canonical network ID of worker j ("wrk<j>").
func WorkerID(j int) string { return workerID(j) }
