package guanyu

import (
	"time"

	"repro/internal/stats"
)

// Series is an accuracy-over-training curve; Point is one sample of it.
// (Re-exported from the measurement layer so results are self-contained.)
type Series = stats.Series

// Point is one sample of a Series.
type Point = stats.Point

// AlignmentRecord is one Table-2 probe: the cosine alignment between honest
// servers' parameter vectors at a step.
type AlignmentRecord = stats.AlignmentRecord

// Result is the outcome of one deployment run, under either runtime.
// Sim-only fields are zero after Live runs and vice versa.
type Result struct {
	// Runtime names the runner that produced the result ("sim" or "live").
	Runtime string
	// Final is the coordinate-wise median of the honest servers' final
	// parameter vectors — the model θ̄ the paper's convergence statement
	// (Eq. 1) is about.
	Final []float64
	// FinalAccuracy is the test accuracy of Final (0 when the workload has
	// no test set).
	FinalAccuracy float64
	// Updates is the number of model updates performed.
	Updates int

	// Curve is the accuracy-vs-(updates, virtual time) series. Sim only.
	Curve *Series
	// Alignments are the Table-2 probe records (see WithAlignmentProbe).
	// Sim only.
	Alignments []AlignmentRecord
	// VirtualTime is the total virtual seconds consumed. Sim only.
	VirtualTime float64

	// ServerParams maps honest server index → final parameter vector.
	// Live only.
	ServerParams map[int][]float64
	// WallTime is the real elapsed time of the run. Live only.
	WallTime time.Duration

	// The drop taxonomy: deployment-wide totals of every frame (or
	// handshake) a node discarded, one field per /metrics counter family,
	// read from the run's registry once every node has finished — so they
	// equal what a final scrape sums to. Live only, under either
	// transport; all zero on a quiet run.
	//
	// DroppedFuture totals frames claiming a step beyond the collection
	// horizon (step-spraying senders).
	DroppedFuture uint64
	// DroppedMalformed totals frames that failed structural validation:
	// inconsistent shard framing, undecodable or oversized compressed
	// payloads.
	DroppedMalformed uint64
	// ForgedDropped totals inbound frames dropped because their From
	// field disagreed with the connection's hello-authenticated identity
	// (TCP transport).
	ForgedDropped uint64
	// DroppedUnnegotiated totals inbound compressed frames dropped for
	// using a scheme their sender never negotiated.
	DroppedUnnegotiated uint64
	// DroppedRoster totals frames whose sender was not legal for their
	// kind at the receiving node: a server takes gradients only from its
	// workers and peer parameters only from its peers, a worker takes
	// parameters only from its servers. Zero on every fault-free run.
	DroppedRoster uint64
	// DroppedOverflow totals the frames shed by bounded inbound mailboxes
	// (per-sender evictions and rejections); CourierDropped totals the
	// same events on honest nodes' outbound courier links.
	DroppedOverflow uint64
	CourierDropped  uint64
	// DroppedClosed totals frames that arrived at nodes after they had
	// shut down (senders outliving receivers).
	DroppedClosed uint64
	// ChurnRestarted reports that the WithRejoin victim was actually
	// killed and came back through checkpoint + median rejoin (false when
	// the run outran the kill, or no rejoin cycle was armed). Live only.
	ChurnRestarted bool
}

// CurveTable renders the convergence curve as the experiment harness's
// plain-text table ("" when the run produced no curve). timeAxis selects
// virtual time instead of update count as the x column.
func (r *Result) CurveTable(title string, timeAxis bool) string {
	if r.Curve == nil {
		return ""
	}
	xLabel := "updates"
	if timeAxis {
		xLabel = "time(s)"
	}
	return stats.FormatSeriesTable(title, xLabel, []*Series{r.Curve}, timeAxis)
}

// FormatCurves renders several runs' curves side by side, the way the
// paper's figure legends group systems.
func FormatCurves(title, xLabel string, curves []*Series, timeAxis bool) string {
	return stats.FormatSeriesTable(title, xLabel, curves, timeAxis)
}

// FormatAlignments renders Table-2 probe records.
func FormatAlignments(records []AlignmentRecord) string {
	return stats.FormatAlignmentTable(records)
}
