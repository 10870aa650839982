package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX2AgreesWithKernel: on Linux the kernel lists avx2 among a
// processor's flags when CPUID reports it and the kernel saves YMM state —
// the two conditions AVX2 checks.
func TestAVX2AgreesWithKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if runtime.GOOS != "linux" || err != nil {
		t.Skip("no /proc/cpuinfo to compare with")
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags on this architecture")
	}
	listed := false
	for _, f := range flags {
		listed = listed || f == "avx2"
	}
	if AVX2 != listed {
		t.Fatalf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, listed)
	}
}
