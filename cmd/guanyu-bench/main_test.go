package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestListExperiments pins the experiment ids, in presentation order, as
// an unknown -exp lists them.
func TestListExperiments(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "help"}, &out)
	want := "known: [table1 fig3 fig4 table2 overhead contraction quorum gar async noniid matrix bandwidth]"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("-exp help: error %v, want one listing %q", err, want)
	}
}

// TestUnknownScaleRejected: -scale takes only the named sizes, and its
// error lists them.
func TestUnknownScaleRejected(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scale", "paper", "-exp", "table1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "known: quick, full, smoke") {
		t.Fatalf("-scale paper: error %v, want one listing the known scales", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-scale paper still ran: %q", out.String())
	}
}

// TestUnknownExperimentRejected covers a made-up id and the four retired
// systems experiments: each errors, and the error lists the known ids.
func TestUnknownExperimentRejected(t *testing.T) {
	known := fmt.Sprint(experiments.IDs())
	for _, id := range []string{"fig99", "throughput", "memory", "scale", "soak"} {
		t.Run(id, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{"-exp", id}, &out)
			if err == nil {
				t.Fatalf("-exp %s accepted", id)
			}
			if !strings.Contains(err.Error(), known) {
				t.Fatalf("-exp %s: error %q does not list the known ids %s", id, err, known)
			}
		})
	}
}

func TestTable1Experiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1756426") {
		t.Fatalf("table1 output missing param count:\n%s", out.String())
	}
}

func TestRunOneSmallExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiments")
	}
	tiny := experiments.Scale{Steps: 20, Batch: 8, SmallBatch: 4, Examples: 300, Seed: 5}
	for _, id := range []string{"fig4", "contraction", "quorum"} {
		var out strings.Builder
		if err := experiments.Run(id, tiny, &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}
