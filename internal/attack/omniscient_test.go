package attack

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gar"
	"repro/internal/tensor"
)

// honestCloud builds a deterministic honest vector set clustered around a
// common mean — the shape omniscient attacks exploit.
func honestCloud(n, d int, seed uint64) []tensor.Vector {
	rng := tensor.NewRNG(seed)
	base := rng.NormVec(make([]float64, d), 1, 0.5)
	out := make([]tensor.Vector, n)
	for i := range out {
		v := tensor.Clone(base)
		noise := rng.NormVec(make([]float64, d), 0, 0.1)
		tensor.AddInPlace(v, noise)
		out[i] = v
	}
	return out
}

func TestALIECraftsMeanMinusZSigma(t *testing.T) {
	honest := honestCloud(10, 6, 3)
	a := &ALIE{Z: 1.5}
	a.Observe(NewStepView(4, honest, 3, 3))
	got := a.Corrupt(honest[0], 4, "ps0")
	mean, std := coordMeanStd(honest)
	for i := range got {
		if want := mean[i] - 1.5*std[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("coordinate %d: got %v want %v", i, got[i], want)
		}
	}
	// Same step, different receiver: the colluders' lie is one vector.
	again := a.Corrupt(honest[1], 4, "ps1")
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("ALIE must send the same crafted vector to every receiver in a step")
		}
	}
}

// TestALIEVectorMatchesTwoPass holds the one-pass crafting to the mean and
// deviation vectors it replaced, bit for bit, on sets of one, two and many
// vectors with signed zeros, infinities and NaN among the coordinates.
func TestALIEVectorMatchesTwoPass(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sets := [][]tensor.Vector{
		{{1, -0.0, inf, nan}},
		{{1, -0.0, inf, 3}, {2, -0.0, -inf, nan}},
		{{0.1, -0.0, 1e308, 5}, {0.2, 0, 1e308, -inf}, {0.7, -0.0, -1e-308, 5}},
		honestCloud(13, 257, 5),
	}
	for k, vs := range sets {
		for _, z := range []float64{0.5, 1.75} {
			got := alieVector(vs, z)
			mean, std := coordMeanStd(vs)
			for i := range got {
				if want := mean[i] - z*std[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("set %d, z=%v, coordinate %d: got %v, two-pass %v", k, z, i, got[i], want)
				}
			}
		}
	}
}

// alieVector is alieInto on a fresh vector.
func alieVector(vs []tensor.Vector, z float64) tensor.Vector {
	out := make(tensor.Vector, len(vs[0]))
	alieInto(out, vs, z)
	return out
}

// coordMeanStd is the two-pass reference of alieVector: the per-coordinate
// mean and (population) standard deviation of the vectors.
func coordMeanStd(vs []tensor.Vector) (mean, std tensor.Vector) {
	mean = tensor.Mean(vs)
	std = make(tensor.Vector, len(mean))
	if len(vs) < 2 {
		return mean, std
	}
	for _, v := range vs {
		for i, x := range v {
			d := x - mean[i]
			std[i] += d * d
		}
	}
	inv := 1 / float64(len(vs))
	for i := range std {
		std[i] = math.Sqrt(std[i] * inv)
	}
	return mean, std
}

// TestOmniscientAttacksLendOneVectorUntilTheNextObserve: an omniscient
// attack crafts one vector per view, from the free list, and lends it to
// every receiver; the next Observe hands it back, once. A degraded view's
// fallback rewrites that one vector per receiver instead of taking another,
// and an Observe before any craft hands nothing back — least of all a
// view's vectors.
func TestOmniscientAttacksLendOneVectorUntilTheNextObserve(t *testing.T) {
	quietPool(t)
	attacks := []struct {
		mk       func() Omniscient
		fallback func(honest tensor.Vector) tensor.Vector
	}{
		{func() Omniscient { return &ALIE{Z: 1} }, tensor.Clone},
		{func() Omniscient { return &InnerProduct{Eps: 2} }, func(h tensor.Vector) tensor.Vector { return tensor.Scale(h, -2) }},
		{func() Omniscient { return &Mimic{Victim: 1} }, tensor.Clone},
		{func() Omniscient { return &AntiKrum{} }, func(h tensor.Vector) tensor.Vector { return tensor.Scale(h, -1) }},
	}
	for k, c := range attacks {
		n := 1061 + k // a length no other test uses, one per attack
		honest := honestCloud(6, n, uint64(21+k))
		kept := make([]tensor.Vector, len(honest))
		for i, h := range honest {
			kept[i] = tensor.Clone(h)
		}
		a := c.mk()
		name := a.Name()

		a.Observe(NewStepView(0, honest, 1, 1))
		a.Observe(NewStepView(0, honest, 1, 1))
		if g := tensor.Get(n); !sameBits(honest, kept) || slices.ContainsFunc(honest, func(h tensor.Vector) bool { return &h[0] == &g[0] }) {
			t.Fatalf("%s: an Observe before any craft handed back a view's vector", name)
		}

		v0 := a.Corrupt(honest[0], 0, "ps0")
		crafted := tensor.Clone(v0)
		if v1 := a.Corrupt(honest[1], 0, "ps1"); &v1[0] != &v0[0] || !sameBits([]tensor.Vector{v0}, []tensor.Vector{crafted}) {
			t.Fatalf("%s: the receivers of one step were not lent the same crafted vector", name)
		}
		a.Observe(NewStepView(1, honest, 1, 1))
		if !recycled(v0) {
			t.Fatalf("%s: the next Observe did not hand the crafted vector back", name)
		}
		if g := tensor.Get(n); !raceEnabled && &g[0] == &v0[0] {
			t.Fatalf("%s: the crafted vector was handed back twice", name)
		}
		if !sameBits(honest, kept) {
			t.Fatalf("%s: crafting or handing back touched the view's vectors", name)
		}

		b := c.mk()
		b.Observe(NewStepView(0, nil, 1, 1)) // a snapshot ahead of every honest sender
		f0 := b.Corrupt(honest[0], 0, "ps0")
		f1 := b.Corrupt(honest[1], 0, "ps1")
		if &f1[0] != &f0[0] {
			t.Fatalf("%s: the degraded view's fallback took a vector per receiver", name)
		}
		if !sameBits([]tensor.Vector{f1}, []tensor.Vector{c.fallback(honest[1])}) {
			t.Fatalf("%s: the fallback does not hold the latest receiver's vector", name)
		}
		b.Observe(StepView{}) // the launcher's end of a run
		if !recycled(f0) {
			t.Fatalf("%s: the end-of-run Observe did not hand the fallback's vector back", name)
		}
		if g := tensor.Get(n); !raceEnabled && &g[0] == &f0[0] {
			t.Fatalf("%s: the fallback's vector was handed back twice", name)
		}
	}
}

// sameBits reports whether got and want hold the same vectors bit for bit.
func sameBits(got, want []tensor.Vector) bool {
	return slices.EqualFunc(got, want, func(a, b tensor.Vector) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	})
}

func TestALIEAutoZIsPositive(t *testing.T) {
	if z := alieZMax(18, 5); z <= 0 || math.IsNaN(z) {
		t.Fatalf("auto z for (18,5) = %v, want positive", z)
	}
	// Degenerate populations fall back to a sane constant instead of NaN.
	if z := alieZMax(2, 5); z != 1 {
		t.Fatalf("degenerate auto z = %v, want 1", z)
	}
}

func TestALIEFallsBackWithoutView(t *testing.T) {
	a := &ALIE{Z: 1}
	honest := tensor.Vector{1, 2, 3}
	got := a.Corrupt(honest, 0, "ps0")
	for i := range honest {
		if got[i] != honest[i] {
			t.Fatal("without a view ALIE should pass the honest vector through")
		}
	}
}

func TestInnerProductNegatesHonestMean(t *testing.T) {
	honest := honestCloud(8, 5, 7)
	a := &InnerProduct{Eps: 2}
	a.Observe(NewStepView(1, honest, 2, 2))
	got := a.Corrupt(honest[0], 1, "ps0")
	mean := tensor.Mean(honest)
	if dot := tensor.Dot(got, mean); dot >= 0 {
		t.Fatalf("crafted vector should oppose the honest mean, dot=%v", dot)
	}
	for i := range got {
		if math.Abs(got[i]+2*mean[i]) > 1e-12 {
			t.Fatalf("coordinate %d: got %v want %v", i, got[i], -2*mean[i])
		}
	}
	// Fallback without a view: negate the local honest vector.
	b := &InnerProduct{Eps: 2}
	local := tensor.Vector{1, -1}
	if got := b.Corrupt(local, 0, "x"); got[0] != -2 || got[1] != 2 {
		t.Fatalf("fallback = %v, want [-2 2]", got)
	}
}

func TestMimicReplaysAnHonestVector(t *testing.T) {
	honest := honestCloud(6, 4, 9)
	a := &Mimic{Victim: 2}
	a.Observe(NewStepView(0, honest, 1, 1))
	got := a.Corrupt(honest[0], 0, "ps0")
	for i := range got {
		if got[i] != honest[2][i] {
			t.Fatalf("mimic should replay honest[2], got %v", got)
		}
	}
}

func TestAntiKrumCraftIsSelectedByKrum(t *testing.T) {
	honest := honestCloud(13, 8, 13)
	const colluders, f = 5, 5
	a := &AntiKrum{}
	a.Observe(NewStepView(2, honest, f, colluders))
	crafted := a.Corrupt(honest[0], 2, "ps0")

	// Re-run the server's own defence: the crafted vector, submitted by
	// all colluders, must win the Krum selection.
	pool := make([]tensor.Vector, 0, colluders+len(honest))
	for i := 0; i < colluders; i++ {
		pool = append(pool, crafted)
	}
	pool = append(pool, honest...)
	scores, err := gar.KrumScores(pool, f)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i, s := range scores {
		if s < scores[best] {
			best = i
		}
	}
	if best >= colluders {
		t.Fatalf("crafted vector not Krum-selected (best=%d)", best)
	}
	// And it must actually deviate from the honest mean (λ > 0).
	if d := tensor.Distance(crafted, tensor.Mean(honest)); d <= 0 {
		t.Fatalf("crafted vector does not deviate (distance %v)", d)
	}
}

func TestEquivocateLiesDifferentlyPerReceiverDeterministically(t *testing.T) {
	honest := tensor.Vector{1, 2, 3, 4}
	a := Equivocate{Std: 1, Seed: 5}
	v1 := a.Corrupt(honest, 3, "wrk1")
	v2 := a.Corrupt(honest, 3, "wrk2")
	if tensor.Distance(v1, v2) == 0 {
		t.Fatal("equivocate sent the same vector to two receivers")
	}
	v1again := a.Corrupt(honest, 3, "wrk1")
	for i := range v1 {
		if v1[i] != v1again[i] {
			t.Fatal("equivocation must be deterministic per (step, receiver)")
		}
	}
	if tensor.Distance(v1, honest) == 0 {
		t.Fatal("equivocate did not corrupt")
	}
}

func TestStaleReplayServesOldVectors(t *testing.T) {
	a := &StaleReplay{Age: 2}
	vecAt := func(step int) tensor.Vector { return tensor.Vector{float64(step)} }
	// Steps 0 and 1: no history yet → honest behaviour.
	if got := a.Corrupt(vecAt(0), 0, "x"); got[0] != 0 {
		t.Fatalf("step 0: got %v", got)
	}
	if got := a.Corrupt(vecAt(1), 1, "x"); got[0] != 1 {
		t.Fatalf("step 1: got %v", got)
	}
	// From step 2 on: replay step−2.
	for step := 2; step < 6; step++ {
		if got := a.Corrupt(vecAt(step), step, "x"); got[0] != float64(step-2) {
			t.Fatalf("step %d: got %v, want %d", step, got, step-2)
		}
	}
}

func TestSlowDriftGrowsLinearly(t *testing.T) {
	a := &SlowDrift{Delta: 0.1, Seed: 4}
	honest := make(tensor.Vector, 5)
	d10 := tensor.Distance(a.Corrupt(honest, 10, "x"), honest)
	d20 := tensor.Distance(a.Corrupt(honest, 20, "x"), honest)
	if math.Abs(d10-1.0) > 1e-9 || math.Abs(d20-2.0) > 1e-9 {
		t.Fatalf("drift distances %v/%v, want 1.0/2.0 (unit direction × Δ × step)", d10, d20)
	}
}

func TestSharedViewPublishSnapshot(t *testing.T) {
	v := NewSharedView(2, 3)
	if got := v.Snapshot(0); len(got.Honest()) != 0 {
		t.Fatal("fresh view should be empty")
	}
	vec := tensor.Vector{1, 2}
	v.Publish(0, vec)
	vec[0] = 99 // the view must have cloned
	snap := v.Snapshot(0)
	if len(snap.Honest()) != 1 || snap.Honest()[0][0] != 1 {
		t.Fatalf("snapshot = %+v, want the cloned [1 2]", snap.Honest())
	}
	if snap.F() != 2 || snap.Colluders() != 3 {
		t.Fatalf("view metadata lost: f=%d colluders=%d", snap.F(), snap.Colluders())
	}
}

func TestRegistrySpecs(t *testing.T) {
	for _, name := range Names() {
		mk, err := FromSpec(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a := mk(0); a == nil {
			t.Fatalf("%s: nil attack", name)
		}
	}
	mk, err := FromSpec("alie:z=1.25", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := mk(0).(*ALIE); a.Z != 1.25 {
		t.Fatalf("alie z = %v, want 1.25", a.Z)
	}
	mk, err = FromSpec("stale:age=9", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := mk(0).(*StaleReplay); a.Age != 9 {
		t.Fatalf("stale age = %v, want 9", a.Age)
	}
	for _, bad := range []string{"", "nosuch", "alie:zz=1", "alie:z", "alie:z=x", "alie:z=1,z=2"} {
		if _, err := FromSpec(bad, 1); err == nil {
			t.Fatalf("spec %q should be rejected", bad)
		}
	}
}

func TestInvNormCDFKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.8413447460685429, 1}, {0.15865525393145707, -1},
	}
	for _, c := range cases {
		if got := invNormCDF(c.p); math.Abs(got-c.want) > 1e-6 {
			t.Fatalf("Φ⁻¹(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
