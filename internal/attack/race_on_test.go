//go:build race

package attack

// raceEnabled reports whether the race detector instruments this build: its
// tensor.Put poisons what it recycles, and its sync.Pool drops a quarter of
// all Puts.
const raceEnabled = true
