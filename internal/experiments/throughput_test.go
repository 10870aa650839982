package experiments

import (
	"strings"
	"testing"
)

// TestThroughputShape checks the wire-throughput experiment's structure:
// one row per (dim, shape), message counts that match the protocol's
// O(n·n̄) fan-out, and positive measured rates. No rate is compared against
// a threshold here — a loaded CI machine must not be able to flake a
// correctness test over a timing margin.
func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("times full-dimension codec passes")
	}
	rows, err := Throughput(Scale{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(throughputDims)*len(throughputShapes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(throughputDims)*len(throughputShapes))
	}
	for _, r := range rows {
		wantMsgs := 2*r.Servers*r.Workers + r.Servers*(r.Servers-1)
		if r.MsgsPerStep != wantMsgs {
			t.Fatalf("(%d,%d): MsgsPerStep = %d, want %d", r.Servers, r.Workers, r.MsgsPerStep, wantMsgs)
		}
		if r.BinMBps <= 0 || r.BinStepsPerSec <= 0 {
			t.Fatalf("non-positive rate in row %+v", r)
		}
		if r.MBPerStep <= 0 {
			t.Fatalf("non-positive volume in row %+v", r)
		}
	}
	out := FormatThroughput(rows)
	for _, want := range []string{"Wire throughput", "1756426", "bin steps/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}
