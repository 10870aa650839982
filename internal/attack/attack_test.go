package attack

import (
	"testing"

	"repro/internal/tensor"
)

var honest = tensor.Vector{1, -2, 3}

func TestRandomGaussianShapeAndRandomness(t *testing.T) {
	a := NewRandomGaussian(100, 1)
	v1 := a.Corrupt(honest, 0, "s1")
	v2 := a.Corrupt(honest, 0, "s1")
	if len(v1) != len(honest) {
		t.Fatalf("corrupted length %d", len(v1))
	}
	same := true
	for i := range v1 {
		if v1[i] != v2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two corruptions identical; attack is not random")
	}
	// honest untouched
	if honest[0] != 1 {
		t.Fatal("attack mutated honest vector")
	}
}

func TestSignFlip(t *testing.T) {
	v := SignFlip{Scale: 2}.Corrupt(honest, 0, "")
	want := tensor.Vector{-2, 4, -6}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("sign-flip = %v, want %v", v, want)
		}
	}
}

func TestScaledNorm(t *testing.T) {
	v := ScaledNorm{Factor: 1e6}.Corrupt(honest, 0, "")
	if v[0] != 1e6 || v[2] != 3e6 {
		t.Fatalf("scaled = %v", v)
	}
}

func TestZeroAttack(t *testing.T) {
	v := Zero{}.Corrupt(honest, 0, "")
	for _, x := range v {
		if x != 0 {
			t.Fatalf("zero attack sent %v", v)
		}
	}
}

func TestNaNInjection(t *testing.T) {
	v := NaNInjection{}.Corrupt(honest, 0, "")
	if tensor.IsFinite(v) {
		t.Fatalf("NaN injection produced finite vector %v", v)
	}
	if len(v) != len(honest) {
		t.Fatalf("length %d", len(v))
	}
}

func TestTwoFacedEquivocates(t *testing.T) {
	a := TwoFaced{Inner: SignFlip{Scale: 1}}
	// Find two receivers with different parities to prove equivocation.
	var honestSeen, corruptSeen bool
	for _, r := range []string{"w0", "w1", "w2", "w3", "w4", "w5"} {
		v := a.Corrupt(honest, 3, r)
		if v[0] == honest[0] {
			honestSeen = true
		} else if v[0] == -honest[0] {
			corruptSeen = true
		} else {
			t.Fatalf("unexpected face %v", v)
		}
	}
	if !honestSeen || !corruptSeen {
		t.Fatalf("two-faced attack showed only one face (honest=%v corrupt=%v)",
			honestSeen, corruptSeen)
	}
	// Deterministic per receiver (same face within a step and across steps).
	v1 := a.Corrupt(honest, 1, "w0")
	v2 := a.Corrupt(honest, 2, "w0")
	if v1[0] != v2[0] {
		t.Fatal("two-faced face not stable per receiver")
	}
}

func TestSilent(t *testing.T) {
	if v := (Silent{}).Corrupt(honest, 0, ""); v != nil {
		t.Fatalf("silent attack sent %v", v)
	}
}

func TestDelayed(t *testing.T) {
	a := Delayed{Period: 3}
	if v := a.Corrupt(honest, 0, ""); v == nil {
		t.Fatal("delayed attack should respond at step 0")
	}
	if v := a.Corrupt(honest, 1, ""); v != nil {
		t.Fatal("delayed attack should be silent at step 1")
	}
	if v := a.Corrupt(honest, 3, ""); v == nil {
		t.Fatal("delayed attack should respond at step 3")
	}
	// Period ≤ 1 degrades to always responding.
	if v := (Delayed{Period: 1}).Corrupt(honest, 5, ""); v == nil {
		t.Fatal("period-1 delayed attack should always respond")
	}
}

func TestAttackNames(t *testing.T) {
	attacks := []Attack{
		NewRandomGaussian(1, 0), SignFlip{}, ScaledNorm{}, Zero{},
		NaNInjection{}, TwoFaced{Inner: Zero{}}, Silent{}, Delayed{},
	}
	seen := map[string]bool{}
	for _, a := range attacks {
		n := a.Name()
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate attack name %q", n)
		}
		seen[n] = true
	}
}
