package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// bitVec is a vector whose bit patterns a numeric conversion would lose.
func bitVec() Vector {
	bits := []uint64{
		0x3ff8000000000000, 0x8000000000000000, 0x0000000000000000,
		0x7ff8dead0000beef, 0xfff0000000000001, 0x7ff0000000000000,
		0x0000000000000001, 0x0102030405060708,
	}
	v := make(Vector, len(bits))
	for i, b := range bits {
		v[i] = math.Float64frombits(b)
	}
	return v
}

// The bulk path (a byte view of the vector's memory) and the per-coordinate
// path a big-endian host runs must produce and accept the same bytes.
func TestLittleEndianCodecPathsAgree(t *testing.T) {
	v := bitVec()
	prefix := []byte("hdr")
	want := appendLEPortable(append([]byte(nil), prefix...), v)
	if want[3] != 0x00 || want[3+7] != 0x3f || want[len(want)-8] != 0x08 {
		t.Fatalf("portable encoding is not little-endian: % x", want)
	}
	if got := AppendLE(append([]byte(nil), prefix...), v); !bytes.Equal(got, want) {
		t.Fatalf("AppendLE = % x, portable = % x", got, want)
	}
	payload := want[len(prefix):]
	bulk, portable := make(Vector, len(v)), make(Vector, len(v))
	DecodeLE(bulk, payload)
	decodeLEPortable(portable, payload)
	for i := range v {
		if math.Float64bits(bulk[i]) != math.Float64bits(v[i]) || math.Float64bits(portable[i]) != math.Float64bits(v[i]) {
			t.Fatalf("coordinate %d: bulk %x portable %x want %x", i,
				math.Float64bits(bulk[i]), math.Float64bits(portable[i]), math.Float64bits(v[i]))
		}
	}
	if got := AppendLE(nil, nil); len(got) != 0 {
		t.Fatalf("empty vector encoded to %d bytes", len(got))
	}
	DecodeLE(nil, nil)
}

// Bytes is a view, not a copy: same memory, clipped capacity, and the
// vector's wire encoding on the hosts where it may be called.
func TestBytesIsAViewOfTheVector(t *testing.T) {
	if !NativeLE() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bytes did not panic on a big-endian host")
			}
		}()
		Bytes(Vector{1})
		return
	}
	v := bitVec()
	b := Bytes(v[2:5]) // a sub-slice: the view must start at ITS first element
	if len(b) != 24 || cap(b) != 24 {
		t.Fatalf("view len %d cap %d, want 24/24", len(b), cap(b))
	}
	if !bytes.Equal(b, appendLEPortable(nil, v[2:5])) {
		t.Fatal("view is not the little-endian encoding")
	}
	copy(b[8:16], []byte{1, 0, 0, 0, 0, 0, 0, 0})
	if math.Float64bits(v[3]) != 1 {
		t.Fatalf("write through the view did not reach the vector: %x", math.Float64bits(v[3]))
	}
	if Bytes(nil) != nil || Bytes(Vector{}) != nil {
		t.Fatal("empty vector has a non-nil view")
	}
}

func TestDecodeLELengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DecodeLE(make(Vector, 2), make([]byte, 15))
}

// f32Classes is one float32 bit pattern of every class the widening must
// carry through: signed zeros, subnormal extremes, normals, MaxFloat32,
// infinities, and quiet and signalling NaNs of both signs with payloads.
var f32Classes = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, // smallest subnormal, largest (negative) subnormal
	0x00800000, 0x3fc00000, 0xc2f6e979, // smallest normal, 1.5, −123.456
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc0beef, // quiet NaNs, the second with a payload
	0x7f800001, 0xffbfffff, // signalling NaNs, lowest and full payload
}

// WidenF32LE must equal the per-coordinate loop bit for bit, through the
// []float32 view (src 4-aligned) and through its per-coordinate fallback
// (src at the other byte offsets of the same buffer): one of offsets 0–3
// takes each path whatever the buffer's own alignment.
func TestWidenF32LEMatchesPortable(t *testing.T) {
	var enc []byte
	for r := 0; r < 3; r++ { // enough coordinates for an unrolled loop body
		for _, b := range f32Classes {
			enc = binary.LittleEndian.AppendUint32(enc, b)
		}
	}
	n := len(enc) / 4
	buf := make([]byte, len(enc)+3)
	for off := 0; off < 4; off++ {
		src := buf[off : off+len(enc)]
		copy(src, enc)
		for _, m := range []int{0, 1, n} {
			got := make(Vector, m)
			WidenF32LE(got, src[:4*m])
			for i := range got {
				// The reference: the loop compress.Decoder ran before PR 29.
				want := float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("offset %d, coordinate %d (float32 %#08x): got %#x, reference %#x", off, i,
						binary.LittleEndian.Uint32(src[4*i:]), math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestWidenF32LELengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WidenF32LE(make(Vector, 2), make([]byte, 7))
}

// BenchmarkWidenF32LE16384 widens one float32 shard of the streaming
// workloads (16,384 coordinates, cache-resident).
func BenchmarkWidenF32LE16384(b *testing.B) {
	v := NewRNG(3).NormVec(make(Vector, 16384), 0, 1)
	var src []byte
	for _, x := range v {
		src = binary.LittleEndian.AppendUint32(src, math.Float32bits(float32(x)))
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WidenF32LE(v, src)
	}
}
