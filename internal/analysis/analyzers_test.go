package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atest"
)

func fixture(name string) string { return filepath.Join("testdata", name, "src") }

func TestCloneBoundary(t *testing.T) {
	atest.Run(t, fixture("cloneboundary"), analysis.CloneBoundary)
}

func TestNoDeterminism(t *testing.T) {
	atest.Run(t, fixture("nodeterminism"), analysis.NoDeterminism)
}

func TestBoundedAlloc(t *testing.T) {
	atest.Run(t, fixture("boundedalloc"), analysis.BoundedAlloc)
}

func TestNoParallelNest(t *testing.T) {
	atest.Run(t, fixture("noparallelnest"), analysis.NoParallelNest)
}
