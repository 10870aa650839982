//go:build !race

package tensor

// poison is the stale-reference guard of race builds (poison_race.go); a
// production build pays nothing for it.
func poison(Vector) {}
