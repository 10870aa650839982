package cpu

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2: CPUID leaf 1 reports OSXSAVE (ECX bit 27, so XGETBV exists) and
// AVX (bit 28), XCR0 has the XMM and YMM state bits (1 and 2) set, and leaf
// 7 reports AVX2 (EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&(1<<27|1<<28) != 1<<27|1<<28 {
		return false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	return xcr0&6 == 6 && ebx7&(1<<5) != 0
}
