package nn

import (
	"testing"

	"repro/internal/cpu"
)

// kernelSides lists the bodies Conv2D's stride-1 Forward and Backward can
// take on this CPU: the Go loops always, the AVX2 assembly when cpu.AVX2.
// The switch below exists for tests only; the package itself decides from
// the CPU alone.
func kernelSides() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// sideName names a body in subtests and failure messages.
func sideName(avx2 bool) string { return map[bool]string{false: "go", true: "avx2"}[avx2] }

// setAVX2 makes the convolution take its AVX2 bodies (on) or its Go loops
// (off) and returns the call that restores the previous choice.
func setAVX2(on bool) (restore func()) {
	prev := useAVX2
	useAVX2 = on
	return func() { useAVX2 = prev }
}

// onEachSide runs f as one subtest per entry of kernelSides.
func onEachSide(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range kernelSides() {
		t.Run(sideName(on), func(t *testing.T) {
			defer setAVX2(on)()
			f(t)
		})
	}
}
