package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/tensor"
)

// encodeCheckpointPerCoordinate is the checkpoint encoder as it was before
// the payload loops moved to tensor.AppendLE: one Float64bits/AppendUint64
// per coordinate. Kept as the byte-level reference — snapshot files written
// by either must be identical, or a restart across the change would reject
// its own checkpoint.
func encodeCheckpointPerCoordinate(c Checkpoint) []byte {
	var flags uint8
	if c.Velocity != nil {
		flags |= ckptFlagVelocity
	}
	buf := append([]byte(nil), checkpointMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, checkpointVersion)
	buf = append(buf, flags, uint8(len(c.ID)))
	buf = append(buf, c.ID...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Step))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Horizon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Theta)))
	for _, v := range c.Theta {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range c.Velocity {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func TestCheckpointBytesUnchangedByBulkCodec(t *testing.T) {
	rng := tensor.NewRNG(77)
	theta := rng.NormVec(make(tensor.Vector, 4099), 0, 1)
	theta[0] = math.Float64frombits(0x7ff8_dead_beef_0001)
	theta[1] = math.Copysign(0, -1)
	theta[2] = math.Inf(-1)
	cases := []Checkpoint{
		{ID: "ps0", Step: 41, Theta: theta, Horizon: 64},
		{ID: "a-rather-longer-node-id", Step: 1 << 40, Theta: theta, Velocity: rng.NormVec(make(tensor.Vector, len(theta)), 0, 1e-3)},
		{ID: "s", Step: 0, Theta: tensor.Vector{1}},
	}
	for _, c := range cases {
		got, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeCheckpointPerCoordinate(c); !bytes.Equal(got, want) {
			t.Fatalf("%s: bulk encoder's bytes differ from the per-coordinate encoder's", c.ID)
		}
	}
}
