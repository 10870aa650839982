package tensor

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Little-endian byte encoding of vectors — the payload format of wire
// frames (WIRE.md §3) and checkpoint files. On a little-endian host that
// encoding IS the memory of a []float64, so the codecs move a vector with
// one bulk copy (or none: Bytes hands the socket the vector's own memory)
// instead of one Float64bits/PutUint64 round trip per coordinate. This
// file holds the repository's only unsafe code; LINT.md records why it is
// allowed and what guards it.

// nativeLE is whether this host stores a float64 in the wire's byte order
// (little-endian IEEE-754; integers and floats share one endianness on
// every Go port). The machine decides it, once — there is no option: on a
// big-endian host every function below takes the per-coordinate loop.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// NativeLE reports whether Bytes is usable on this host, i.e. whether a
// vector's memory is already its wire encoding.
func NativeLE() bool { return nativeLE }

// Bytes returns v's backing memory as a byte slice of length 8·len(v) —
// on a little-endian host, exactly v's wire encoding. No copy is made.
//
// Preconditions, all on the caller:
//   - NativeLE() is true (Bytes panics otherwise: a bug, never input);
//   - the view lives no longer than v's backing array is meant to hold
//     these values — writes through either slice are visible through the
//     other, so a view handed to a writer must not outlive the write call,
//     and a view handed to a reader makes v's contents the reader's bytes,
//     bit for bit (NaN payloads and −0 included);
//   - the view is never appended to (its capacity is clipped to its
//     length, so an append reallocates instead of running past v).
//
// A []float64 is 8-byte aligned and has no pointers, so the reinterpretation
// is valid for the garbage collector and for every byte offset.
func Bytes(v Vector) []byte {
	if !nativeLE {
		panic("tensor: Bytes on a big-endian host")
	}
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// AppendLE appends v's little-endian encoding (8·len(v) bytes) to dst and
// returns the extended slice.
func AppendLE(dst []byte, v Vector) []byte {
	if nativeLE {
		return append(dst, Bytes(v)...)
	}
	return appendLEPortable(dst, v)
}

// DecodeLE fills dst from its little-endian encoding src. Panics unless
// len(src) == 8·len(dst) (programming error: callers size both from one
// validated header). src is only read; dst aliases nothing afterwards.
func DecodeLE(dst Vector, src []byte) {
	if len(src) != 8*len(dst) {
		panic("tensor: DecodeLE length mismatch")
	}
	if nativeLE {
		copy(Bytes(dst), src)
		return
	}
	decodeLEPortable(dst, src)
}

// WidenF32LE fills dst by converting each float32 of src, its little-endian
// encoding, to float64, and reports whether every one of them was finite (a
// finite float32 widens to a finite float64, so the result is IsFinite(dst)).
// Panics unless len(src) == 4·len(dst), like DecodeLE. src is read as bytes,
// at any alignment: a received payload lies where the frame put it in the
// connection's buffer. Every coordinate is written whatever the report, bit
// for bit float64(float32) (NaN payloads, −0 and subnormals included); the
// AVX2 body covers at most avx2Span coordinates a call, and the Go loop is
// the tail, the body elsewhere and the tests' reference.
func WidenF32LE(dst Vector, src []byte) bool {
	if len(src) != 4*len(dst) {
		panic("tensor: WidenF32LE length mismatch")
	}
	finite := true
	i := 0
	for useAVX2 && len(dst)-i >= 16 {
		n := min(len(dst)-i, avx2Span) &^ 15
		finite = widenF32AVX2(dst[i:i+n], src[4*i:4*(i+n)]) && finite
		i += n
	}
	// A float32's exponent is all ones (NaN, ±Inf) exactly when adding one
	// to it carries into the sign bit.
	const expMask = 0xff << 23
	var carry uint32
	for ; i < len(dst); i++ {
		b := binary.LittleEndian.Uint32(src[4*i:])
		dst[i] = float64(math.Float32frombits(b))
		carry |= b&expMask + 1<<23
	}
	return finite && carry>>31 == 0
}

// appendLEPortable is AppendLE's per-coordinate form: the only one a
// big-endian host runs, and the reference the bulk path is tested against.
func appendLEPortable(dst []byte, v Vector) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeLEPortable is DecodeLE's per-coordinate form.
func decodeLEPortable(dst Vector, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
