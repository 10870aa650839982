package experiments

import (
	"strings"
	"testing"
)

// matrixScale keeps the grid cheap enough to run twice per parallelism in
// CI time while still exercising attacks, rules and fault schedules.
var matrixScale = Scale{Steps: 25, Batch: 8, SmallBatch: 4, Examples: 300, Seed: 11}

// matrixTestSpec covers every cell class: an omniscient attack, a blind
// one, the vulnerable mean, a robust rule, no faults, survivable faults,
// and the liveness-breaking partition.
var matrixTestSpec = MatrixSpec{
	Attacks: []string{"signflip:scale=30", "alie:z=1.5", "antikrum"},
	Rules:   []string{"mean", "multi-krum"},
	Faults:  []string{"none", "drop:p=0.01", "partition:every=10,for=2"},
	Churn:   []string{"none", "crash"},
}

func TestMatrixShapeAndBreakdowns(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := Matrix(matrixScale, matrixTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(matrixTestSpec.Attacks) * len(matrixTestSpec.Rules) *
		len(matrixTestSpec.Faults) * len(matrixTestSpec.Churn)
	if len(r.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(r.Cells), want)
	}
	cellAt := func(attack, rule, fault, churn string) MatrixCell {
		for _, c := range r.Cells {
			if c.Attack == attack && c.Rule == rule && c.Fault == fault && c.Churn == churn {
				return c
			}
		}
		t.Fatalf("cell (%s, %s, %s, %s) missing", attack, rule, fault, churn)
		return MatrixCell{}
	}
	// The classic comparison: mean collapses under the scaled sign-flip,
	// multi-krum holds.
	broken := cellAt("signflip:scale=30", "mean", "none", "none")
	robust := cellAt("signflip:scale=30", "multi-krum", "none", "none")
	if broken.Failed == "" && broken.FinalAccuracy > robust.FinalAccuracy-0.2 {
		t.Fatalf("mean under sign-flip (%.3f) not clearly worse than multi-krum (%.3f)",
			broken.FinalAccuracy, robust.FinalAccuracy)
	}
	if robust.Failed != "" || robust.FinalAccuracy < 0.6 {
		t.Fatalf("multi-krum under sign-flip should survive, got %+v", robust)
	}
	// A bisection partition starves the bulk-synchronous quorums: a
	// deterministic liveness breakdown, not a crash.
	part := cellAt("alie:z=1.5", "multi-krum", "partition:every=10,for=2", "none")
	if part.Failed != "no-quorum" {
		t.Fatalf("partition cell should break liveness, got %+v", part)
	}
	// Survivable faults leave the robust cells converging.
	drop := cellAt("antikrum", "multi-krum", "drop:p=0.01", "none")
	if drop.Failed != "" || drop.FinalAccuracy < 0.6 {
		t.Fatalf("multi-krum under anti-krum + drops should survive, got %+v", drop)
	}
	// The churn band: a server crashing and recovering mid-run is inside
	// the quorum margin, so the robust cell must still converge while under
	// attack.
	churned := cellAt("signflip:scale=30", "multi-krum", "none", "crash")
	if churned.Failed != "" || churned.FinalAccuracy < 0.6 {
		t.Fatalf("multi-krum under sign-flip + crash churn should survive, got %+v", churned)
	}
	out := r.Format()
	for _, wantStr := range []string{"Scenario matrix", "break:no-quorum", "## faults: none", "churn: crash"} {
		if !strings.Contains(out, wantStr) {
			t.Fatalf("formatted matrix missing %q:\n%s", wantStr, out)
		}
	}
}

func TestMatrixBitIdenticalAcrossParallelismAndReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	serial := atParallelism(t, 1, func() (*MatrixResult, error) {
		return Matrix(matrixScale, matrixTestSpec)
	})
	rerun := atParallelism(t, 1, func() (*MatrixResult, error) {
		return Matrix(matrixScale, matrixTestSpec)
	})
	for _, workers := range []int{4, 7} {
		par := atParallelism(t, workers, func() (*MatrixResult, error) {
			return Matrix(matrixScale, matrixTestSpec)
		})
		for _, other := range []*MatrixResult{rerun, par} {
			if len(serial.Cells) != len(other.Cells) {
				t.Fatalf("cell counts differ: %d vs %d", len(serial.Cells), len(other.Cells))
			}
			for i := range serial.Cells {
				if serial.Cells[i] != other.Cells[i] {
					t.Fatalf("cell %d differs: %+v vs %+v", i, serial.Cells[i], other.Cells[i])
				}
			}
		}
	}
	if serial.Format() != rerun.Format() {
		t.Fatal("formatted matrix differs across reruns with the same seed")
	}
}

func TestMatrixRejectsUnknownSpecs(t *testing.T) {
	bad := []MatrixSpec{
		{Attacks: []string{"nosuch"}, Rules: []string{"mean"}, Faults: []string{"none"}},
		{Attacks: []string{"alie"}, Rules: []string{"nosuch"}, Faults: []string{"none"}},
		{Attacks: []string{"alie"}, Rules: []string{"mean"}, Faults: []string{"nosuch"}},
		{Attacks: []string{"alie"}, Rules: []string{"mean"}, Faults: []string{"none"}, Churn: []string{"explode:0@3"}},
		{Attacks: []string{"alie"}, Rules: []string{"mean"}, Faults: []string{"none"}, Churn: []string{"crash:0@9999"}},
		{Attacks: []string{"alie:nosuchparam=1"}, Rules: []string{"mean"}, Faults: []string{"none"}},
		{},
	}
	for _, spec := range bad {
		if _, err := Matrix(matrixScale, spec); err == nil {
			t.Fatalf("spec %+v should be rejected", spec)
		}
	}
}

// TestMatrixAttackFreeRow: "none" on the attack axis arms no worker, so
// the mean, which the same grid's armed collusion breaks, converges.
func TestMatrixAttackFreeRow(t *testing.T) {
	r, err := Matrix(matrixScale, MatrixSpec{
		Attacks: []string{"none", "signflip:scale=30"},
		Rules:   []string{"mean"},
		Faults:  []string{"none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, armed := r.Cells[0], r.Cells[1]
	if clean.Attack != "none" || clean.Failed != "" || clean.FinalAccuracy < 0.9 {
		t.Fatalf("attack-free mean should converge, got %+v", clean)
	}
	if armed.Failed == "" && armed.FinalAccuracy > clean.FinalAccuracy-0.2 {
		t.Fatalf("armed mean (%+v) not clearly worse than the attack-free row (%+v)", armed, clean)
	}
	if out := r.Format(); !strings.Contains(out, "\nnone ") {
		t.Fatalf("formatted matrix has no attack-free row:\n%s", out)
	}
}
