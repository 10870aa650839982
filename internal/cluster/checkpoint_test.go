package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestCheckpointRoundTrip: encode→decode is the identity on every field,
// bit-for-bit on the floats — including NaN payload bits, ±Inf and
// negative zero, which a text codec would flatten.
func TestCheckpointRoundTrip(t *testing.T) {
	weirdNaN := math.Float64frombits(0x7ff8_dead_beef_0001) // non-default NaN payload
	cases := []Checkpoint{
		{ID: "ps0", Step: 0, Theta: tensor.Vector{1, 2, 3}, Horizon: 64},
		{ID: "ps1", Step: 12345, Theta: tensor.Vector{0.5, -0.25}},
		{ID: "s", Step: 7, Theta: tensor.Vector{weirdNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}},
	}
	for _, want := range cases {
		data, err := EncodeCheckpoint(want)
		if err != nil {
			t.Fatalf("%s: %v", want.ID, err)
		}
		got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", want.ID, err)
		}
		if got.ID != want.ID || got.Step != want.Step || got.Horizon != want.Horizon {
			t.Fatalf("header mismatch: %+v vs %+v", got, want)
		}
		sameBits := func(a, b tensor.Vector) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return false
				}
			}
			return true
		}
		if !sameBits(got.Theta, want.Theta) {
			t.Fatalf("%s: θ not bit-exact: %v vs %v", want.ID, got.Theta, want.Theta)
		}
	}
}

// TestCheckpointRejections: every malformed input class is rejected, and
// the size check runs before any dimension-sized allocation.
func TestCheckpointRejections(t *testing.T) {
	good, err := EncodeCheckpoint(Checkpoint{ID: "ps0", Step: 3, Theta: tensor.Vector{1, 2}, Horizon: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at every length.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeCheckpoint(good[:cut]); err == nil {
			t.Fatalf("checkpoint truncated at %d bytes accepted", cut)
		}
	}
	// One trailing byte too many.
	if _, err := DecodeCheckpoint(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("oversized checkpoint accepted")
	}
	// Wrong magic / wrong version / unknown flags.
	for _, mut := range []struct {
		name string
		off  int
		b    byte
	}{
		{"magic", 0, 'X'},
		{"version", 4, 99},
		{"flags", 6, 0x80},
	} {
		bad := append([]byte{}, good...)
		bad[mut.off] = mut.b
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("checkpoint with bad %s accepted", mut.name)
		}
	}
	// Flipped payload bit: the checksum must catch it.
	bad := append([]byte{}, good...)
	bad[len(bad)-6] ^= 0x01
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("corrupted checkpoint passed the checksum")
	}
	// A file of the retired two-vector layout — flag bit 0 set, θ
	// followed by a second vector of the same dimension, size and
	// checksum consistent — is refused as unknown flags, not misread.
	flagged := append([]byte{}, good[:len(good)-4]...)
	flagged[6] = 0x01
	flagged = tensor.AppendLE(flagged, tensor.Vector{0.5, -0.5})
	flagged = binary.LittleEndian.AppendUint32(flagged, crc32.ChecksumIEEE(flagged))
	if _, err := DecodeCheckpoint(flagged); err == nil || !strings.Contains(err.Error(), "unknown checkpoint flags") {
		t.Fatalf("checkpoint with flag bit 0 and a second vector: %v, want an unknown-flags refusal", err)
	}
	// A header claiming a huge dimension on a tiny file must be rejected
	// by the exact-size check, never allocated.
	tiny := append([]byte{}, good[:8+3+8]...)   // through the step field
	tiny = append(tiny, 0, 0, 0, 0)             // horizon
	tiny = append(tiny, 0xff, 0xff, 0xff, 0x03) // dim claiming MaxVecLen
	if _, err := DecodeCheckpoint(tiny); err == nil {
		t.Fatal("huge-dimension claim on a tiny file accepted")
	}
	// Encoder-side rejections.
	for _, c := range []Checkpoint{
		{ID: "", Step: 0, Theta: tensor.Vector{1}},
		{ID: "x", Step: -1, Theta: tensor.Vector{1}},
		{ID: "x", Step: 0, Theta: nil},
		{ID: "x", Step: 0, Theta: tensor.Vector{1}, Horizon: -1},
	} {
		if _, err := EncodeCheckpoint(c); err == nil {
			t.Fatalf("EncodeCheckpoint accepted %+v", c)
		}
	}
}

// TestCheckpointPersistence: WriteFile is atomic (no temp residue, old
// file intact until the new one is complete) and LoadCheckpoint refuses a
// foreign node's state.
func TestCheckpointPersistence(t *testing.T) {
	dir := t.TempDir()
	c1 := Checkpoint{ID: "ps0", Step: 4, Theta: tensor.Vector{1, 2, 3}}
	if err := c1.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir, "ps0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 4 {
		t.Fatalf("loaded step %d, want 4", got.Step)
	}
	// Overwrite with newer state; the file is replaced, not appended.
	c2 := Checkpoint{ID: "ps0", Step: 9, Theta: tensor.Vector{7, 8, 9}}
	if err := c2.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(dir, "ps0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 9 || got.Theta[0] != 7 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// A different node must not adopt this state.
	if _, err := LoadCheckpoint(dir, "ps1"); err == nil {
		t.Fatal("foreign checkpoint adopted")
	}
	// A torn write (partial temp promoted by hand) is caught on load.
	data, _ := os.ReadFile(CheckpointPath(dir, "ps0"))
	if err := os.WriteFile(CheckpointPath(dir, "ps0"), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir, "ps0"); err == nil {
		t.Fatal("torn checkpoint loaded")
	}
}

// TestRejoinMedian: the restarted server adopts the coordinate-wise
// median of a live peer quorum and learns the cluster's current step — at
// the one-shard layout and at a sharded one, from whole-vector and from
// chunk-streaming peers alike.
func TestRejoinMedian(t *testing.T) {
	for _, tc := range []struct {
		name               string
		layoutSize, sendAs int
	}{
		{"one shard", 0, 0},
		{"one shard, sharded peers", 0, 1},
		{"two shards", 1, 1},
		{"two shards, whole-vector peers", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewChanNetwork(nil)
			defer net.Close()
			recv, _ := net.Register("ps0")
			peers := make([]transport.Endpoint, 3)
			for i := range peers {
				peers[i], _ = net.Register(fmt.Sprintf("ps%d", i+1))
			}
			// The cluster is at step 40 — ahead of ps0's checkpoint at step 12 —
			// with one outlier peer (Byzantine or just divergent).
			vecs := []tensor.Vector{{1, 10}, {2, 20}, {1000, -1000}}
			for i, p := range peers {
				m := transport.Message{Kind: transport.KindPeerParams, Step: 40, Vec: vecs[i]}
				if err := transport.SendSharded(p, "ps0", m, tc.sendAs); err != nil {
					t.Fatal(err)
				}
			}
			col := transport.NewCollector(recv, transport.NewShardLayout(2, tc.layoutSize))
			theta, step, err := RejoinMedian(col, 13, 3, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if step != 40 {
				t.Fatalf("rejoined at step %d, want 40", step)
			}
			if theta[0] != 2 || theta[1] != 10 {
				t.Fatalf("median = %v, want [2 10]", theta)
			}

			// Timeout without a quorum wraps the sentinel the server loop's
			// fallback branch matches on.
			_, _, err = RejoinMedian(col, 41, 3, 50*time.Millisecond)
			if !errors.Is(err, transport.ErrQuorumTimeout) {
				t.Fatalf("rejoin without live traffic: %v, want a quorum timeout", err)
			}
		})
	}
}

// FuzzCheckpointDecode: the decoder must never panic, never allocate past
// its bounds, and on success the codec must be canonical — re-encoding a
// decoded checkpoint reproduces the input byte-for-byte.
func FuzzCheckpointDecode(f *testing.F) {
	seed := func(c Checkpoint) []byte {
		data, err := EncodeCheckpoint(c)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(Checkpoint{ID: "ps0", Step: 3, Theta: tensor.Vector{1, 2}, Horizon: 64}))
	f.Add(seed(Checkpoint{ID: "ps1", Step: 0, Theta: tensor.Vector{math.NaN(), math.Inf(1)}}))
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("GYCKxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		re, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("codec not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
