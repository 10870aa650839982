package gar

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestCheckRole is the paper's legality section as a table: for each role
// (at the paper's shapes, 6 servers with f = 1 and 18 workers with f̄ = 5)
// and each bound, the shape at the bound is accepted and the shape one past
// it is refused, for the reason that bound names.
func TestCheckRole(t *testing.T) {
	seq := func(ix ...int) func(func(int) bool) { return slices.Values(ix) }
	upTo := func(n int) []int {
		ix := make([]int, n)
		for i := range ix {
			ix[i] = i
		}
		return ix
	}
	for _, r := range []struct {
		role string
		f    int
	}{{"server", 1}, {"worker", 5}} {
		f, n := r.f, 3*r.f+3
		rows := []struct {
			name      string
			n, f, q   int
			byzantine []int
			want      string // "" means accepted
		}{
			{"f = 0", 3, 0, 0, nil, ""},
			{"f = -1", 3, -1, 0, nil, "negative Byzantine count f=-1"},
			{"n = 3f+3", n, f, 0, nil, ""},
			{"n = 3f+2", n - 1, f, 0, nil, fmt.Sprintf("population n=%d violates n ≥ 3f+3", n-1)},
			{"q = 2f+3", n + 1, f, 2*f + 3, nil, ""},
			{"q = 2f+2", n + 1, f, 2*f + 2, nil, fmt.Sprintf("quorum q=%d violates q ≥ 2f+3", 2*f+2)},
			{"q = n-f", n + 1, f, n + 1 - f, nil, ""},
			{"q = n-f+1", n + 1, f, n + 2 - f, nil, fmt.Sprintf("quorum q=%d violates q ≤ n−f", n+2-f)},
			{"q <= 0 is 2f+3", n, f, -1, nil, ""},
			{"index 0 and n-1", n, f, 0, []int{0, n - 1}, ""},
			{"index -1", n, f, 0, []int{-1}, "attack index -1 outside population"},
			{"index n", n, f, 0, []int{n}, fmt.Sprintf("attack index %d outside population [0, %d)", n, n)},
			{"n-1 attacked", n, f, 0, upTo(n - 1), ""},
			{"n attacked", n, f, 0, upTo(n), "every " + r.role + " is Byzantine"},
		}
		for _, row := range rows {
			err := CheckRole(r.role, row.n, row.f, row.q, seq(row.byzantine...))
			switch {
			case row.want == "" && err != nil:
				t.Errorf("%s %s: refused: %v", r.role, row.name, err)
			case row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)):
				t.Errorf("%s %s: got %v, want an error containing %q", r.role, row.name, err, row.want)
			case err != nil && !strings.Contains(err.Error(), r.role):
				t.Errorf("%s %s: error %q does not name the role", r.role, row.name, err)
			}
		}
	}
	if err := CheckRole("server", 6, 1, 0, nil); err != nil {
		t.Fatalf("nil attacked set: %v", err)
	}
}
