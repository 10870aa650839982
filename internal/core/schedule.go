package core

// Schedule is a learning-rate schedule η_t. The convergence proof requires
// the Robbins-Monro conditions: Σ η_t = ∞ and Σ η_t² < ∞ (Assumption 6 of
// the paper).
type Schedule func(step int) float64

// ConstantLR returns a constant schedule. It violates Σ η_t² < ∞ — fine for
// finite-horizon experiments, outside the asymptotic theory.
func ConstantLR(eta float64) Schedule {
	return func(int) float64 { return eta }
}

// InverseTimeLR returns η_t = eta0 / (1 + t/halfLife): the canonical
// Robbins-Monro-compliant schedule used throughout the experiments.
func InverseTimeLR(eta0 float64, halfLife float64) Schedule {
	return func(t int) float64 { return eta0 / (1 + float64(t)/halfLife) }
}
