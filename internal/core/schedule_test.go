package core

import (
	"math"
	"testing"
)

func TestConstantLR(t *testing.T) {
	s := ConstantLR(0.1)
	if s(0) != 0.1 || s(1000) != 0.1 {
		t.Fatal("constant schedule not constant")
	}
}

func TestInverseTimeLR(t *testing.T) {
	s := InverseTimeLR(1.0, 100)
	if s(0) != 1.0 {
		t.Fatalf("η₀ = %v", s(0))
	}
	if math.Abs(s(100)-0.5) > 1e-12 {
		t.Fatalf("η₁₀₀ = %v, want 0.5", s(100))
	}
	for tt := 1; tt < 1000; tt *= 2 {
		if s(tt) >= s(tt-1) {
			t.Fatal("inverse-time schedule not decreasing")
		}
	}
}

func TestMomentumRunConverges(t *testing.T) {
	w := BlobWorkload(500, 130)
	cfg := fastGuanYu(w, 80, 15)
	cfg.Momentum = 0.9
	cfg.LR = func(int) float64 { return 0.05 } // momentum amplifies steps
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.85 {
		t.Fatalf("momentum run failed to converge: %.3f", res.FinalAccuracy)
	}
}
