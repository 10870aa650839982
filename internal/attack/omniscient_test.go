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
	got := make(tensor.Vector, 6)
	ALIE{Z: 1.5}.Craft(got, NewStepView(4, honest, 3, 3))
	mean, std := coordMeanStd(honest)
	for i := range got {
		if want := mean[i] - 1.5*std[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("coordinate %d: got %v want %v", i, got[i], want)
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

// TestColludersCraftOncePerKind: Crafts crafts each distinct attack at most
// once per message kind, into a free-list vector; equal attack values share
// that vector, whatever view they ask with, and Release hands each one back,
// once. A view without honest vectors crafts nothing, and crafting leaves
// the view's vectors untouched. A SharedView keeps the crafts of a step in
// its window and hands them back at Close. The fallback, Corrupt, writes a
// vector of its own. The free list's ledger counts every hand-back.
func TestColludersCraftOncePerKind(t *testing.T) {
	attacks := []struct {
		a        Omniscient
		fallback func(honest tensor.Vector) tensor.Vector
	}{
		{ALIE{Z: 1}, tensor.Clone},
		{InnerProduct{Eps: 2}, func(h tensor.Vector) tensor.Vector { return tensor.Scale(h, -2) }},
		{Mimic{Victim: 1}, tensor.Clone},
		{AntiKrum{}, func(h tensor.Vector) tensor.Vector { return tensor.Scale(h, -1) }},
	}
	for k, c := range attacks {
		n := 1061 + k // a length no other test uses, one per attack
		tensor.Put(make(tensor.Vector, n))
		base := tensor.Outstanding()[n]
		moved := func() int64 { return tensor.Outstanding()[n] - base }
		honest := honestCloud(6, n, uint64(21+k))
		kept := make([]tensor.Vector, len(honest))
		for i, h := range honest {
			kept[i] = tensor.Clone(h)
		}
		a, name := c.a, c.a.Name()
		view := NewStepView(0, honest, 1, 1)
		want := make(tensor.Vector, n)
		a.Craft(want, view)

		var crafts Crafts
		if got := crafts.Get(a, 1, NewStepView(0, nil, 1, 1)); got != nil {
			t.Fatalf("%s: crafted from a view without honest vectors", name)
		}
		v := crafts.Get(a, 1, view)
		if !sameBits([]tensor.Vector{v}, []tensor.Vector{want}) {
			t.Fatalf("%s: the crafted vector is not Craft's", name)
		}
		colluder := c.a // an equal value, as the registry arms every colluder
		if again := crafts.Get(colluder, 1, NewStepView(0, honest[:2], 1, 1)); &again[0] != &v[0] {
			t.Fatalf("%s: an equal colluder crafted again", name)
		}
		other := crafts.Get(a, 2, view)
		if &other[0] == &v[0] {
			t.Fatalf("%s: two message kinds share one craft", name)
		}
		if !sameBits(honest, kept) {
			t.Fatalf("%s: crafting touched the view's vectors", name)
		}
		if moved() != 2 {
			t.Fatalf("%s: two crafts moved the ledger by %d, want 2 vectors from the free list", name, moved())
		}
		crafts.Release()
		crafts.Release()
		if moved() != 0 {
			t.Fatalf("%s: after two Releases the ledger stands at %d; want each crafted vector handed back once", name, moved())
		}

		shared := NewSharedView(1, 1)
		if got := shared.Craft(a, 1, 0); got != nil {
			t.Fatalf("%s: a SharedView crafted before any honest vector was published", name)
		}
		for _, h := range honest {
			shared.Publish(0, h)
		}
		sv := shared.Craft(a, 1, 0)
		if again := shared.Craft(colluder, 1, 0); &again[0] != &sv[0] || !sameBits([]tensor.Vector{sv}, []tensor.Vector{want}) {
			t.Fatalf("%s: the colluders of one step do not send one crafted vector", name)
		}
		shared.Close()
		if moved() != 0 {
			t.Fatalf("%s: after Close the ledger stands at %d; want the step's copies and crafted vector handed back once", name, moved())
		}

		f := a.Corrupt(honest[1], 0, "")
		if &f[0] == &honest[1][0] || !sameBits([]tensor.Vector{f}, []tensor.Vector{c.fallback(kept[1])}) {
			t.Fatalf("%s: the fallback is not a vector of its own holding %s's local answer", name, name)
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
	honest := tensor.Vector{1, 2, 3}
	got := ALIE{Z: 1}.Corrupt(honest, 0, "ps0")
	for i := range honest {
		if got[i] != honest[i] {
			t.Fatal("without a view ALIE should pass the honest vector through")
		}
	}
}

func TestInnerProductNegatesHonestMean(t *testing.T) {
	honest := honestCloud(8, 5, 7)
	got := make(tensor.Vector, 5)
	InnerProduct{Eps: 2}.Craft(got, NewStepView(1, honest, 2, 2))
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
	local := tensor.Vector{1, -1}
	if got := (InnerProduct{Eps: 2}).Corrupt(local, 0, "x"); got[0] != -2 || got[1] != 2 {
		t.Fatalf("fallback = %v, want [-2 2]", got)
	}
}

func TestMimicReplaysAnHonestVector(t *testing.T) {
	honest := honestCloud(6, 4, 9)
	for _, victim := range []int{2, 8, -4} { // all honest[2] among six
		got := make(tensor.Vector, 4)
		Mimic{Victim: victim}.Craft(got, NewStepView(0, honest, 1, 1))
		for i := range got {
			if got[i] != honest[2][i] {
				t.Fatalf("mimic victim %d should replay honest[2], got %v", victim, got)
			}
		}
	}
}

func TestAntiKrumCraftIsSelectedByKrum(t *testing.T) {
	honest := honestCloud(13, 8, 13)
	const colluders, f = 5, 5
	crafted := make(tensor.Vector, 8)
	AntiKrum{}.Craft(crafted, NewStepView(2, honest, f, colluders))

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
	if a := mk(0).(ALIE); a.Z != 1.25 || mk(1) != a {
		t.Fatalf("alie z = %v, want 1.25 and one value for every colluder", a.Z)
	}
	mk, err = FromSpec("stale:age=9", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := mk(0).(*StaleReplay); a.Age != 9 {
		t.Fatalf("stale age = %v, want 9", a.Age)
	}
	for _, bad := range []string{"", "nosuch", "alie:zz=1", "alie:z", "alie:z=x", "alie:z=1,z=2",
		"mimic:victim=nan", "mimic:victim=-inf", "alie:z=+Inf"} {
		if _, err := FromSpec(bad, 1); err == nil {
			t.Fatalf("spec %q should be rejected", bad)
		}
	}
	// Fault-profile specs parse through ParseSpec too.
	if _, _, err := ParseSpec("drop:p=NaN"); err == nil {
		t.Fatal(`ParseSpec accepted "drop:p=NaN"`)
	}
	// The largest and smallest victims int() can make of a finite float.
	for _, spec := range []string{"mimic:victim=-9.3e18", "mimic:victim=9.3e18", "mimic:victim=-7"} {
		mk, err := FromSpec(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		honest := honestCloud(6, 3, 1)
		mk(0).(Omniscient).Craft(make(tensor.Vector, 3), NewStepView(0, honest, 1, 1))
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
