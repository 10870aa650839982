package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// WidenF32LE must equal float64(float32) coordinate by coordinate, bit for
// bit, and report finiteness exactly when no float32 has an all-ones
// exponent: on both bodies, at source offsets 0–3 (a payload lies at any
// offset of a connection's buffer), at lengths on both sides of the AVX2
// block and of avx2Span, every float32 class at every lane.
func TestWidenF32LEMatchesPortable(t *testing.T) { onEachSide(t, testWidenF32LEMatchesPortable) }

func testWidenF32LEMatchesPortable(t *testing.T) {
	rng := NewRNG(5)
	check := func(t *testing.T, what string, src []byte) {
		t.Helper()
		got := make(Vector, len(src)/4)
		finite := WidenF32LE(got, src)
		wantFinite := true
		for i := range got {
			b := binary.LittleEndian.Uint32(src[4*i:])
			want := float64(math.Float32frombits(b))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s, coordinate %d (float32 %#08x): got %#x, reference %#x", what, i, b,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
			wantFinite = wantFinite && !math.IsNaN(want) && !math.IsInf(want, 0)
		}
		if finite != wantFinite {
			t.Fatalf("%s: reported finite %v, want %v", what, finite, wantFinite)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 45, avx2Span - 1, avx2Span, avx2Span + 1, 16384} {
		enc := make([]byte, 4*n)
		for i := range n {
			// Every class cycles through every lane of a block; the rest
			// are ordinary finite values.
			b := math.Float32bits(float32(rng.Norm()))
			if i%3 == 0 {
				b = f32Classes[(i/3)%len(f32Classes)]
			}
			binary.LittleEndian.PutUint32(enc[4*i:], b)
		}
		finite := make([]byte, 4*n)
		for i := range n {
			b := binary.LittleEndian.Uint32(enc[4*i:])
			if b&(0xff<<23) == 0xff<<23 {
				b &^= 1 << 23 // the largest finite exponent, same payload bits
			}
			binary.LittleEndian.PutUint32(finite[4*i:], b)
		}
		buf := make([]byte, 4*n+3)
		for off := range 4 {
			src := buf[off : off+4*n]
			copy(src, enc)
			check(t, fmt.Sprintf("n %d, offset %d, every class", n, off), src)
			copy(src, finite)
			check(t, fmt.Sprintf("n %d, offset %d, finite", n, off), src)
			if n == 0 {
				continue
			}
			// One non-finite value at the first, a middle, the last
			// coordinate, and in the tail after the last full block.
			at := []int{0, n / 2, n - 1, n &^ 15}
			for _, i := range at {
				if i >= n {
					continue
				}
				for _, bad := range []uint32{0x7f800000, 0xff800000, 0x7fc00001, 0xff800001} {
					copy(src, finite)
					binary.LittleEndian.PutUint32(src[4*i:], bad)
					check(t, fmt.Sprintf("n %d, offset %d, %#08x at %d", n, off, bad, i), src)
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
// workloads (16,384 coordinates, cache-resident) from a 4-aligned source;
// BenchmarkWidenF32LE16384Unaligned from one byte further on, where a
// received shard lies in its connection's buffer, behind the frame head
// and the sender ID.
func BenchmarkWidenF32LE16384(b *testing.B) { benchmarkWidenF32LE(b, 0) }

func BenchmarkWidenF32LE16384Unaligned(b *testing.B) { benchmarkWidenF32LE(b, 1) }

func benchmarkWidenF32LE(b *testing.B, off int) {
	v := NewRNG(3).NormVec(make(Vector, 16384), 0, 1)
	buf := make([]byte, off, off+4*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(x)))
	}
	src := buf[off:]
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WidenF32LE(v, src)
	}
}
