package experiments

import (
	"strings"
	"testing"
)

// TestCheckWireBench: the committed file and the measurement must hold
// the same rows with the same exact bytes — a row on either side only, a
// drifted count, or an unreadable file is a failure.
func TestCheckWireBench(t *testing.T) {
	a := BandwidthRow{Dim: 4, Scheme: "none", Shards: 1, WireBytes: 60, RawBytes: 60}
	b := BandwidthRow{Dim: 4, Scheme: "float32", Shards: 1, WireBytes: 44, RawBytes: 60}
	file := func(rows ...BandwidthRow) []byte {
		data, err := WireBenchJSON(rows)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	drifted := b
	drifted.WireBytes++
	for _, c := range []struct {
		name      string
		committed []byte
		measured  []BandwidthRow
		want      string // error substring; "" = match
	}{
		{"same rows", file(a, b), []BandwidthRow{b, a}, ""},
		{"row missing from file", file(a), []BandwidthRow{a, b}, "4/float32 is not in the committed file"},
		{"row missing from measurement", file(a, b), []BandwidthRow{a}, "4/float32 no longer measured"},
		{"drifted bytes", file(a, b), []BandwidthRow{a, drifted}, "4/float32 drifted"},
		{"empty file", file(), []BandwidthRow{a}, "no rows"},
		{"unparsable file", []byte("{rows"), []BandwidthRow{a}, "bad committed bench file"},
	} {
		err := CheckWireBench(c.committed, c.measured)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
