// Package cpu reports the vector instructions of the processor the program
// runs on, so that a kernel picks its assembly body from the CPU alone.
package cpu

// AVX2 reports whether the processor has AVX2 and the operating system saves
// the YMM registers (always false off amd64). The kernels of internal/gar,
// internal/nn and internal/tensor run their AVX2 bodies exactly when it is
// true.
var AVX2 = hasAVX2()
