package tensor

import (
	"bytes"
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
