// Package stats provides the measurement instruments of the evaluation:
// accuracy/time series recording, throughput computation, the parameter-
// drift diagnostic from the contraction proof, and the alignment probe that
// regenerates Table 2 of the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/tensor"
)

// Point is one sample of a convergence curve: accuracy measured after a
// given number of model updates, at a given virtual time.
type Point struct {
	// Step is the model-update index (x-axis of Figures 3a/3c/4).
	Step int `json:"step"`
	// Time is the virtual time in seconds (x-axis of Figures 3b/3d).
	Time float64 `json:"timeSeconds"`
	// Accuracy is top-1 test accuracy in [0, 1].
	Accuracy float64 `json:"accuracy"`
	// Loss is the mean training loss observed at this step (0 if unknown).
	Loss float64 `json:"loss"`
	// Drift is the max pairwise distance between honest server models.
	Drift float64 `json:"drift"`
}

// Series is a named convergence curve.
type Series struct {
	// Name labels the curve (e.g. "vanilla TF", "GuanYu (fwrk=5, fps=1)").
	Name string `json:"name"`
	// Points are samples in increasing step order.
	Points []Point `json:"points"`
}

// Add appends a sample.
func (s *Series) Add(p Point) { s.Points = append(s.Points, p) }

// FinalAccuracy returns the accuracy of the last sample (0 if empty).
func (s *Series) FinalAccuracy() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Accuracy
}

// BestAccuracy returns the max accuracy over the curve.
func (s *Series) BestAccuracy() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	return best
}

// TimeToAccuracy returns the first virtual time at which the curve reaches
// the target accuracy, or +Inf if it never does. This is the comparison
// behind the 65% / 33% overhead numbers of Section 5.3.
func (s *Series) TimeToAccuracy(target float64) float64 {
	for _, p := range s.Points {
		if p.Accuracy >= target {
			return p.Time
		}
	}
	return math.Inf(1)
}

// Throughput returns model updates per virtual second over the whole run
// (0 for degenerate curves).
func (s *Series) Throughput() float64 {
	if len(s.Points) < 2 {
		return 0
	}
	last := s.Points[len(s.Points)-1]
	if last.Time <= 0 {
		return 0
	}
	return float64(last.Step) / last.Time
}

// OverheadPercent returns how much slower (in %) this curve reaches the
// target accuracy compared to the baseline curve; the paper reports
// vanilla-GuanYu-vs-vanilla-TF ≈ 65% and Byzantine-vs-vanilla-GuanYu ≤ 33%.
// Returns NaN when either curve never reaches the target.
func OverheadPercent(baseline, system *Series, target float64) float64 {
	b := baseline.TimeToAccuracy(target)
	s := system.TimeToAccuracy(target)
	if math.IsInf(b, 1) || math.IsInf(s, 1) || b == 0 {
		return math.NaN()
	}
	return (s - b) / b * 100
}

// AlignmentRecord is one row of Table 2: at a given step, the two largest
// parameter-difference norms among honest servers and the cosine of the
// angle between those two difference vectors. Values of cos φ close to 1
// support the paper's alignment assumption (Assumption 2).
type AlignmentRecord struct {
	// Step is the learning step at which the probe ran.
	Step int `json:"step"`
	// CosPhi is the cosine of the angle between the two largest difference
	// vectors.
	CosPhi float64 `json:"cosPhi"`
	// MaxDiff1 and MaxDiff2 are the two largest difference norms.
	MaxDiff1 float64 `json:"maxDiff1"`
	MaxDiff2 float64 `json:"maxDiff2"`
}

// Alignment computes the Table-2 probe over the honest servers' parameter
// vectors at one step: all pairwise difference vectors are formed, the two
// with the largest norms are kept, and the cosine of their angle returned.
// The sign is normalised to be non-negative (a difference vector and its
// negation describe the same line). Requires at least 3 vectors; returns
// false otherwise.
func Alignment(step int, thetas []tensor.Vector) (AlignmentRecord, bool) {
	if len(thetas) < 3 {
		return AlignmentRecord{}, false
	}
	type diff struct {
		v    tensor.Vector
		norm float64
	}
	diffs := make([]diff, 0, len(thetas)*(len(thetas)-1)/2)
	for i := 0; i < len(thetas); i++ {
		for j := i + 1; j < len(thetas); j++ {
			v := tensor.Sub(thetas[i], thetas[j])
			diffs = append(diffs, diff{v: v, norm: tensor.Norm2(v)})
		}
	}
	sort.Slice(diffs, func(a, b int) bool { return diffs[a].norm > diffs[b].norm })
	cos := tensor.CosineSimilarity(diffs[0].v, diffs[1].v)
	return AlignmentRecord{
		Step:     step,
		CosPhi:   math.Abs(cos),
		MaxDiff1: diffs[0].norm,
		MaxDiff2: diffs[1].norm,
	}, true
}

// FormatSeriesTable renders a set of curves as a step-indexed text table,
// one column per curve — the textual equivalent of one figure panel.
func FormatSeriesTable(title, xLabel string, curves []*Series, timeAxis bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-12s", xLabel)
	for _, c := range curves {
		fmt.Fprintf(&b, " %22s", c.Name)
	}
	b.WriteByte('\n')
	rows := 0
	for _, c := range curves {
		if len(c.Points) > rows {
			rows = len(c.Points)
		}
	}
	for r := 0; r < rows; r++ {
		var x string
		for _, c := range curves {
			if r < len(c.Points) {
				if timeAxis {
					x = fmt.Sprintf("%.2f", c.Points[r].Time)
				} else {
					x = fmt.Sprintf("%d", c.Points[r].Step)
				}
				break
			}
		}
		fmt.Fprintf(&b, "%-12s", x)
		for _, c := range curves {
			if r < len(c.Points) {
				fmt.Fprintf(&b, " %22.4f", c.Points[r].Accuracy)
			} else {
				fmt.Fprintf(&b, " %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTimeToAccuracyTable renders a time-axis figure panel as the time
// each system needs to first reach a ladder of accuracy levels — the
// faithful textual reading of "accuracy vs time" curves, since each curve
// has its own time stamps. Unreached levels print "-".
func FormatTimeToAccuracyTable(title string, curves []*Series, levels []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (seconds to first reach accuracy level)\n", title)
	fmt.Fprintf(&b, "%-10s", "accuracy")
	for _, c := range curves {
		fmt.Fprintf(&b, " %22s", c.Name)
	}
	b.WriteByte('\n')
	for _, lvl := range levels {
		fmt.Fprintf(&b, "%-10.2f", lvl)
		for _, c := range curves {
			t := c.TimeToAccuracy(lvl)
			if math.IsInf(t, 1) {
				fmt.Fprintf(&b, " %22s", "-")
			} else {
				fmt.Fprintf(&b, " %22.2f", t)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatAlignmentTable renders alignment records as the paper's Table 2.
func FormatAlignmentTable(records []AlignmentRecord) string {
	var b strings.Builder
	b.WriteString("# Table 2: alignment of parameter difference vectors\n")
	fmt.Fprintf(&b, "%-8s %-20s %-14s %-14s\n", "Step", "cos(phi)", "max diff1", "max diff2")
	for _, r := range records {
		fmt.Fprintf(&b, "%-8d %-20.16f %-14.7f %-14.7f\n", r.Step, r.CosPhi, r.MaxDiff1, r.MaxDiff2)
	}
	return b.String()
}
