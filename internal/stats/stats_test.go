package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func curve(name string, pts ...Point) *Series {
	s := &Series{Name: name}
	for _, p := range pts {
		s.Add(p)
	}
	return s
}

func TestSeriesAccessors(t *testing.T) {
	s := curve("x",
		Point{Step: 0, Time: 0, Accuracy: 0.1},
		Point{Step: 10, Time: 5, Accuracy: 0.5},
		Point{Step: 20, Time: 10, Accuracy: 0.4},
	)
	if s.FinalAccuracy() != 0.4 {
		t.Fatalf("final = %v", s.FinalAccuracy())
	}
	if s.BestAccuracy() != 0.5 {
		t.Fatalf("best = %v", s.BestAccuracy())
	}
	if s.TimeToAccuracy(0.5) != 5 {
		t.Fatalf("time-to = %v", s.TimeToAccuracy(0.5))
	}
	if !math.IsInf(s.TimeToAccuracy(0.9), 1) {
		t.Fatal("unreached target time should be +Inf")
	}
	if s.Throughput() != 2 {
		t.Fatalf("throughput = %v, want 20 steps / 10 s", s.Throughput())
	}
	empty := curve("e")
	if empty.FinalAccuracy() != 0 || empty.Throughput() != 0 {
		t.Fatal("empty series accessors should be 0")
	}
}

// TestThroughputReadsTheLastPoint: a curve of one point has a rate (a short
// simulation evaluates once, at its end); only an empty curve or one still
// at time 0 has none.
func TestThroughputReadsTheLastPoint(t *testing.T) {
	for _, c := range []struct {
		name   string
		points []Point
		want   float64
	}{
		{"no point", nil, 0},
		{"one point", []Point{{Step: 5, Time: 0.05}}, 100},
		{"two points", []Point{{Step: 0, Time: 0}, {Step: 8, Time: 2}}, 4},
		{"one point at time 0", []Point{{Step: 0, Time: 0}}, 0},
	} {
		if got := curve("x", c.points...).Throughput(); got != c.want {
			t.Errorf("%s: throughput %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOverheadPercent(t *testing.T) {
	base := curve("base", Point{Step: 10, Time: 100, Accuracy: 0.6})
	slow := curve("slow", Point{Step: 10, Time: 165, Accuracy: 0.6})
	if got := OverheadPercent(base, slow, 0.6); math.Abs(got-65) > 1e-9 {
		t.Fatalf("overhead = %v, want 65", got)
	}
	never := curve("never", Point{Step: 10, Time: 5, Accuracy: 0.2})
	if !math.IsNaN(OverheadPercent(base, never, 0.6)) {
		t.Fatal("unreachable target should give NaN")
	}
}

func TestAlignmentPerfectlyAligned(t *testing.T) {
	// Three collinear parameter vectors: all difference vectors parallel,
	// so cos φ must be exactly 1.
	u := tensor.Vector{1, 2, 3}
	thetas := []tensor.Vector{
		tensor.Scale(u, 1),
		tensor.Scale(u, 2),
		tensor.Scale(u, 4),
	}
	rec, ok := Alignment(40, thetas)
	if !ok {
		t.Fatal("alignment probe refused 3 vectors")
	}
	if math.Abs(rec.CosPhi-1) > 1e-12 {
		t.Fatalf("cos φ = %v, want 1", rec.CosPhi)
	}
	if rec.MaxDiff1 < rec.MaxDiff2 {
		t.Fatal("difference norms not sorted")
	}
	if rec.Step != 40 {
		t.Fatalf("step = %d", rec.Step)
	}
}

func TestAlignmentOrthogonal(t *testing.T) {
	thetas := []tensor.Vector{
		{0, 0}, {10, 0}, {0, 9},
	}
	rec, ok := Alignment(0, thetas)
	if !ok {
		t.Fatal("probe failed")
	}
	// Largest diffs: (10,0)−(0,9) = (10,−9) and (10,0)−(0,0) = (10,0);
	// far from parallel but not orthogonal; just check range and symmetry.
	if rec.CosPhi < 0 || rec.CosPhi > 1 {
		t.Fatalf("cos φ out of [0,1]: %v", rec.CosPhi)
	}
}

func TestAlignmentNeedsThreeVectors(t *testing.T) {
	if _, ok := Alignment(0, []tensor.Vector{{1}, {2}}); ok {
		t.Fatal("probe accepted 2 vectors")
	}
}

func TestFormatSeriesTable(t *testing.T) {
	a := curve("sysA", Point{Step: 0, Accuracy: 0.1}, Point{Step: 20, Accuracy: 0.6})
	b := curve("sysB", Point{Step: 0, Accuracy: 0.1})
	out := FormatSeriesTable("Fig 3a", "updates", []*Series{a, b}, false)
	for _, want := range []string{"Fig 3a", "sysA", "sysB", "0.6000", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	timeTable := FormatSeriesTable("Fig 3b", "seconds",
		[]*Series{curve("x", Point{Step: 5, Time: 1.25, Accuracy: 0.3})}, true)
	if !strings.Contains(timeTable, "1.25") {
		t.Fatalf("time axis missing:\n%s", timeTable)
	}
}

func TestFormatAlignmentTable(t *testing.T) {
	out := FormatAlignmentTable([]AlignmentRecord{
		{Step: 1340, CosPhi: 0.982, MaxDiff1: 1.41, MaxDiff2: 1.42},
	})
	for _, want := range []string{"Table 2", "1340", "0.98"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
