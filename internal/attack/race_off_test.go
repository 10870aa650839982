//go:build !race

package attack

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
