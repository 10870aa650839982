//go:build race

package tensor

import "math"

// poison overwrites a vector on its way into the free list, so that in race
// builds — which CI runs every suite under — reading a vector after its
// owner returned it yields NaN instead of plausible stale numbers.
func poison(v Vector) {
	nan := math.NaN()
	for i := range v {
		v[i] = nan
	}
}
