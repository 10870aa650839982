package tensor

import (
	"testing"

	"repro/internal/cpu"
)

// onEachSide runs f as one subtest per body IsFinite can take on this CPU:
// the Go loop always, the AVX2 assembly when cpu.AVX2. The switch exists
// for tests only; the package itself decides from the CPU alone.
func onEachSide(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		if on && !cpu.AVX2 {
			continue
		}
		name := map[bool]string{false: "go", true: "avx2"}[on]
		t.Run(name, func(t *testing.T) {
			prev := useAVX2
			useAVX2 = on
			defer func() { useAVX2 = prev }()
			f(t)
		})
	}
}
