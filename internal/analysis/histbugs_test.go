package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atest"
)

// TestHistoricalBugs runs the full suite over a fixture tree that
// reproduces each historical bug shape in miniature: the un-cloned
// send and map-iteration order deciding a quorum. Every bug must be
// flagged by exactly the marker on its line, and nothing else in the
// fixture may be flagged.
func TestHistoricalBugs(t *testing.T) {
	atest.Run(t, fixture("histbugs"), analysis.All()...)
}

// TestHistoricalBugsRequireEachAnalyzer proves each finding is
// attributable: with any one analyzer disabled, exactly that
// analyzer's findings — and no others — disappear from the
// historical-bug fixture.
func TestHistoricalBugsRequireEachAnalyzer(t *testing.T) {
	pkgs, err := analysis.LoadFixture(fixture("histbugs"))
	if err != nil {
		t.Fatal(err)
	}
	full := analysis.RunAnalyzers(pkgs, analysis.All())
	counts := make(map[string]int)
	for _, d := range full {
		counts[d.Analyzer]++
	}
	for _, name := range []string{"cloneboundary", "nodeterminism"} {
		if counts[name] == 0 {
			t.Errorf("full suite found no %s diagnostic in the historical-bug fixture", name)
		}
	}
	for _, disabled := range analysis.All() {
		var kept []*analysis.Analyzer
		for _, a := range analysis.All() {
			if a != disabled {
				kept = append(kept, a)
			}
		}
		got := analysis.RunAnalyzers(pkgs, kept)
		if want := len(full) - counts[disabled.Name]; len(got) != want {
			t.Errorf("with %s disabled: got %d findings, want %d", disabled.Name, len(got), want)
		}
	}
}
