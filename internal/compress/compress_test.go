package compress

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/tensor"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"none", Config{}},
		{"float32", Config{Scheme: Float32}},
		{"f32", Config{Scheme: Float32}},
		{"topk:k=0.01", Config{Scheme: TopK, TopKFrac: 0.01}},
		{"topk", Config{Scheme: TopK, TopKFrac: 0.01}},
		{" topk : k = 0.25 ", Config{Scheme: TopK, TopKFrac: 0.25}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// The canonical rendering reparses to the same config.
		back, err := ParseSpec(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip of %q via %q: %+v, %v", c.spec, got.String(), back, err)
		}
	}
	for _, bad := range []string{"zstd", "delta", "delta:key=8", "topk:k=0", "topk:k=1.5", "topk:z=1", "float32:k=1", "topk:k"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestCapMask(t *testing.T) {
	if (Config{}).CapMask() != 0 {
		t.Fatal("none must announce no capabilities")
	}
	if got := (Config{Scheme: TopK, TopKFrac: 0.1}).CapMask(); got != 1<<3 {
		t.Fatalf("topk capability bit = %#x", got)
	}
}

// roundTrip encodes vec on enc and decodes on dec, failing the test on any
// error.
func roundTrip(t *testing.T, enc *Encoder, dec *Decoder, kind uint8, step int64, off int, vec []float64) []float64 {
	t.Helper()
	payload, err := enc.Encode(nil, kind, step, off, vec)
	if err != nil {
		t.Fatalf("encode step %d: %v", step, err)
	}
	out, err := dec.Decode(enc.Config().Scheme, kind, step, off, len(vec), payload, nil)
	if err != nil {
		t.Fatalf("decode step %d: %v", step, err)
	}
	return out
}

func TestFloat32RoundTrip(t *testing.T) {
	enc := NewEncoder(Config{Scheme: Float32})
	dec := NewDecoder()
	vec := []float64{0, -1.5, math.Pi, 1e-40, -math.MaxFloat32}
	out := roundTrip(t, enc, dec, 2, 0, 0, vec)
	for i, v := range vec {
		if want := float64(float32(v)); out[i] != want {
			t.Fatalf("coordinate %d: %g, want %g", i, out[i], want)
		}
	}
}

func TestTopKSelectionDeterministicTies(t *testing.T) {
	x := []float64{1, -1, 1, 0.5, -1}
	_, idx := selectTopK(x, 2, nil, nil)
	// |x| = {1,1,1,0.5,1}: ties break toward the lower index.
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("tie-broken selection = %v, want [0 1]", idx)
	}
	_, all := selectTopK(x, 5, nil, nil)
	if len(all) != 5 {
		t.Fatalf("k = n selection kept %d", len(all))
	}
}

func TestKthLargestAgainstSort(t *testing.T) {
	rng := tensor.NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		a := rng.NormVec(make([]float64, n), 0, 1)
		for i := range a {
			if i%5 == 0 {
				a[i] = a[i/2] // inject duplicates
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		k := 1 + rng.Intn(n)
		if got := kthLargest(append([]float64(nil), a...), k); got != sorted[k-1] {
			t.Fatalf("kthLargest(n=%d, k=%d) = %g, want %g", n, k, got, sorted[k-1])
		}
	}
}

func TestTopKErrorFeedback(t *testing.T) {
	cfg := Config{Scheme: TopK, TopKFrac: 0.25}
	enc := NewEncoder(cfg)
	dec := NewDecoder()
	// A constant vector: with k = 1 of 4 per step and error feedback, every
	// coordinate's compensated magnitude grows until it wins selection
	// (round-robin under ties), so no coordinate is starved: over S steps
	// each ships S·1 minus the ≤ 3 units still in the accumulator. Without
	// the memory, coordinate 0 would win every step and the rest would ship
	// nothing, ever.
	vec := []float64{1, 1, 1, 1}
	sum := make([]float64, len(vec))
	steps := 16
	for step := 0; step < steps; step++ {
		out := roundTrip(t, enc, dec, 1, int64(step), 0, vec)
		nonzero := 0
		for i, v := range out {
			sum[i] += v
			if v != 0 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Fatalf("step %d shipped %d coordinates, want k=1", step, nonzero)
		}
	}
	for i := range sum {
		if sum[i] < float64(steps)-3.5 || sum[i] > float64(steps)+0.5 {
			t.Fatalf("coordinate %d shipped %g of %d units (accumulator leak?)", i, sum[i], steps)
		}
	}
}

func TestTopKMalformedPayloads(t *testing.T) {
	enc := NewEncoder(Config{Scheme: TopK, TopKFrac: 0.5})
	valid, err := enc.Encode(nil, 1, 0, 0, []float64{5, 0, -7, 0})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(TopK, 1, 0, 0, 4, valid, nil); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	corrupt := func(mut func(p []byte) []byte) error {
		p := mut(append([]byte(nil), valid...))
		_, err := NewDecoder().Decode(TopK, 1, 0, 0, 4, p, nil)
		return err
	}
	cases := map[string]func(p []byte) []byte{
		"truncated table":  func(p []byte) []byte { return p[:len(p)-3] },
		"k zero":           func(p []byte) []byte { p[0], p[1], p[2], p[3] = 0, 0, 0, 0; return p },
		"k exceeds range":  func(p []byte) []byte { p[0] = 200; return p },
		"index oob":        func(p []byte) []byte { p[4] = 99; return p },
		"duplicate index":  func(p []byte) []byte { copy(p[12:16], p[4:8]); return p },
		"unsorted indices": func(p []byte) []byte { p[4], p[12] = p[12], p[4]; return p },
		"empty":            func(p []byte) []byte { return nil },
	}
	for name, mut := range cases {
		if err := corrupt(mut); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", name, err)
		}
	}
}

func TestMalformedPayloads(t *testing.T) {
	for _, c := range []struct {
		name    string
		scheme  Scheme
		payload []byte
	}{
		{"float32 wrong size", Float32, []byte{1, 2, 3}},
		{"unknown scheme 9", Scheme(9), []byte{1}},
		{"retired scheme 2", Scheme(2), make([]byte, 4*2)},
	} {
		if _, err := NewDecoder().Decode(c.scheme, 1, 0, 0, 2, c.payload, nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", c.name, err)
		}
	}
	if Scheme(2).Known() {
		t.Fatal("retired scheme 2 reports Known")
	}
}

func TestPayloadBytesReductions(t *testing.T) {
	const dim = 1756426 // the paper's Table-1 parameter count
	raw := float64((Config{}).PayloadBytes(dim))
	if r := raw / float64((Config{Scheme: Float32}).PayloadBytes(dim)); r < 1.9 {
		t.Fatalf("float32 payload reduction %.2f×, want ≥ 1.9×", r)
	}
	if r := raw / float64((Config{Scheme: TopK, TopKFrac: 0.01}).PayloadBytes(dim)); r < 4 {
		t.Fatalf("topk(1%%) payload reduction %.2f×, want ≥ 4×", r)
	}
}
