package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Compressed-payload layout constants (byte-level spec in WIRE.md §9). All
// integers are little-endian.
const (
	// topkHeaderSize is the entry-count prefix; topkEntrySize is one
	// {index uint32, value float32} pair.
	topkHeaderSize = 4
	topkEntrySize  = 8
)

// ErrMalformed tags payloads that violate their scheme's wire format —
// truncated index tables, out-of-range or non-increasing indices, k > n
// claims, length mismatches, unknown schemes. Receivers drop such frames
// and count them (DroppedMalformed on the node's metrics handle).
var ErrMalformed = fmt.Errorf("compress: malformed payload")

// streamKey identifies one independent payload stream within a link: the
// protocol kind plus the shard range's coordinate offset, so chunked
// streaming gives every shard its own error-feedback accumulator.
type streamKey struct {
	kind uint8
	off  int
}

// encStream is the sender-side state of one stream.
type encStream struct {
	// acc is the top-k error-feedback accumulator: everything encoded so
	// far minus everything actually shipped. x is the selection scratch.
	acc []float64
	x   []float64
	// mags and idx are top-k selection scratch.
	mags []float64
	idx  []int
}

// Encoder compresses the payloads of one directed link (one sender → one
// receiver). Not safe for concurrent use; see the package comment for the
// state-ownership contract.
type Encoder struct {
	cfg     Config
	streams map[streamKey]*encStream
}

// NewEncoder returns an encoder for cfg. cfg must validate.
func NewEncoder(cfg Config) *Encoder {
	return &Encoder{cfg: cfg, streams: make(map[streamKey]*encStream)}
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

func (e *Encoder) stream(kind uint8, off int) *encStream {
	k := streamKey{kind: kind, off: off}
	st := e.streams[k]
	if st == nil {
		st = &encStream{}
		e.streams[k] = st
	}
	return st
}

// Encode appends the compressed payload for vec — coordinates
// [off, off+len(vec)) of a logical vector, shipped at the given step and
// protocol kind — to dst and returns the extended slice. vec is only read;
// error feedback goes to the encoder's internal state.
func (e *Encoder) Encode(dst []byte, kind uint8, step int64, off int, vec []float64) ([]byte, error) {
	if len(vec) == 0 {
		return dst, fmt.Errorf("compress: cannot encode an empty payload")
	}
	switch e.cfg.Scheme {
	case Float32:
		return appendFloat32(dst, vec), nil
	case TopK:
		return e.encodeTopK(dst, kind, off, vec), nil
	default:
		return dst, fmt.Errorf("compress: scheme %s does not encode", e.cfg.Scheme)
	}
}

// Float32Size is the width of one coordinate in a Float32 payload: the
// payload of coordinates [off, off+n) is their n little-endian float32s, in
// order, so coordinate i of it lies at bytes [Float32Size·i,
// Float32Size·(i+1)). A payload cut at coordinate boundaries is therefore a
// run of Float32 payloads, which a receiver may widen piece by piece as the
// bytes arrive (WidenFloat32).
const Float32Size = 4

func appendFloat32(dst []byte, vec []float64) []byte {
	n := len(dst)
	dst = appendZeros(dst, Float32Size*len(vec))
	out := dst[n:]
	for i, v := range vec {
		binary.LittleEndian.PutUint32(out[Float32Size*i:], math.Float32bits(float32(v)))
	}
	return dst
}

// WidenFloat32 expands the Float32 payload src into dst and reports whether
// every coordinate is finite, checked in the same pass (one kernel,
// tensor.WidenF32LE). Panics unless len(src) == Float32Size·len(dst): the
// caller sizes both from one checked header. src may lie at any alignment.
func WidenFloat32(dst []float64, src []byte) bool { return tensor.WidenF32LE(dst, src) }

// appendZeros extends dst by n bytes, reslicing instead of append-extending
// when capacity suffices (the reused-buffer steady state; the extension is
// overwritten by the caller either way).
func appendZeros(dst []byte, n int) []byte {
	if need := len(dst) + n; need <= cap(dst) {
		return dst[:need]
	}
	return append(dst, make([]byte, n)...)
}

func (e *Encoder) encodeTopK(dst []byte, kind uint8, off int, vec []float64) []byte {
	st := e.stream(kind, off)
	n := len(vec)
	if len(st.acc) != n {
		// First frame of the stream (or a dimension change, which resets
		// the compensation — stale error from another geometry is garbage).
		st.acc = make([]float64, n)
		st.x = make([]float64, n)
	}
	// Error feedback: select from the compensated vector x = vec + acc, so
	// coordinates starved in previous steps accumulate pressure until sent.
	x := st.x
	for i, v := range vec {
		x[i] = v + st.acc[i]
	}
	k := TopKCount(e.cfg.TopKFrac, n)
	st.mags, st.idx = selectTopK(x, k, st.mags, st.idx)
	idx := st.idx

	var hdr [topkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(idx)))
	dst = append(dst, hdr[:]...)
	pos := len(dst)
	dst = appendZeros(dst, topkEntrySize*len(idx))
	out := dst[pos:]
	// The new accumulator is x minus what shipped: untouched coordinates
	// keep their full compensated value, shipped ones keep only the
	// float32 truncation residue.
	copy(st.acc, x)
	for j, i := range idx {
		f := float32(x[i])
		binary.LittleEndian.PutUint32(out[topkEntrySize*j:], uint32(i))
		binary.LittleEndian.PutUint32(out[topkEntrySize*j+4:], math.Float32bits(f))
		st.acc[i] = x[i] - float64(f)
	}
	return dst
}

// selectTopK returns (in idx, ascending) the indices of the k largest-|x|
// coordinates, ties broken toward the lower index — a deterministic
// selection on every platform. mags and idx are caller scratch, returned
// grown. NaN magnitudes rank as +Inf: the codec ships them and leaves the
// accept/reject decision to the receiver's validator, like the rest of the
// wire stack.
func selectTopK(x []float64, k int, mags []float64, idx []int) ([]float64, []int) {
	n := len(x)
	idx = idx[:0]
	if k >= n {
		for i := range x {
			idx = append(idx, i)
		}
		return mags, idx
	}
	if cap(mags) < n {
		mags = make([]float64, n)
	}
	mags = mags[:n]
	for i, v := range x {
		m := math.Abs(v)
		if math.IsNaN(m) {
			m = math.Inf(1)
		}
		mags[i] = m
	}
	thr := kthLargest(append([]float64(nil), mags...), k)
	// Two passes: everything strictly above the threshold is in; the
	// remaining slots go to threshold-equal coordinates in index order.
	above := 0
	for _, m := range mags {
		if m > thr {
			above++
		}
	}
	atThr := k - above
	for i, m := range mags {
		switch {
		case m > thr:
			idx = append(idx, i)
		case m == thr && atThr > 0:
			idx = append(idx, i)
			atThr--
		}
	}
	return mags, idx
}

// kthLargest returns the k-th largest element of a (1 ≤ k ≤ len(a)),
// mutating a. Iterative quickselect with median-of-three pivoting —
// deterministic, O(n) expected on the honest inputs the encoder selects
// over (the array is the sender's OWN data, so adversarial O(n²) pivot
// sequences are not a threat model here).
func kthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	want := k - 1 // index in descending order
	for lo < hi {
		// Median-of-three pivot, moved to a[lo].
		mid := lo + (hi-lo)/2
		if a[mid] > a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] > a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[mid] > a[hi] {
			a[mid], a[hi] = a[hi], a[mid]
		}
		pivot := a[hi]
		// Partition descending: left of i ≥ pivot.
		i := lo
		for j := lo; j < hi; j++ {
			if a[j] > pivot {
				a[i], a[j] = a[j], a[i]
				i++
			}
		}
		a[i], a[hi] = a[hi], a[i]
		switch {
		case want == i:
			return a[i]
		case want < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
	return a[lo]
}

// Decoder expands compressed payloads. It keeps no state — every payload
// decodes on its own — so one Decoder serves any number of links and
// goroutines.
type Decoder struct{}

// NewDecoder returns a decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Decode expands payload — scheme-encoded coordinates [off, off+n) shipped
// at the given step and kind — into dst (reusing its capacity) and returns
// the n-coordinate result. The payload alone determines the result: kind,
// step and off only name the range. Every structural check runs BEFORE
// dst is grown, so a malformed or truncated payload costs the receiver no
// allocation: memory is committed only for payloads that already paid
// their bytes onto the wire.
func (d *Decoder) Decode(scheme Scheme, kind uint8, step int64, off, n int, payload []byte, dst []float64) ([]float64, error) {
	if n <= 0 {
		return dst, fmt.Errorf("%w: %d-coordinate range", ErrMalformed, n)
	}
	switch scheme {
	case Float32:
		if len(payload) != Float32Size*n {
			return dst, fmt.Errorf("%w: float32 payload %d bytes for %d coordinates", ErrMalformed, len(payload), n)
		}
		dst = growVec(dst, n)
		WidenFloat32(dst, payload)
		return dst, nil
	case TopK:
		return decodeTopK(n, payload, dst)
	default:
		return dst, fmt.Errorf("%w: unknown scheme %d", ErrMalformed, scheme)
	}
}

func decodeTopK(n int, payload []byte, dst []float64) ([]float64, error) {
	if len(payload) < topkHeaderSize {
		return dst, fmt.Errorf("%w: topk payload %d bytes", ErrMalformed, len(payload))
	}
	k64 := binary.LittleEndian.Uint32(payload)
	if k64 == 0 || uint64(k64) > uint64(n) {
		return dst, fmt.Errorf("%w: topk claims %d entries for %d coordinates", ErrMalformed, k64, n)
	}
	k := int(k64)
	if len(payload) != topkHeaderSize+topkEntrySize*k {
		return dst, fmt.Errorf("%w: topk table %d bytes for %d entries", ErrMalformed, len(payload)-topkHeaderSize, k)
	}
	// Validate the whole index table before touching dst: strictly
	// increasing (which subsumes the duplicate check) and in range.
	body := payload[topkHeaderSize:]
	prev := -1
	for j := 0; j < k; j++ {
		i64 := binary.LittleEndian.Uint32(body[topkEntrySize*j:])
		if uint64(i64) >= uint64(n) {
			return dst, fmt.Errorf("%w: topk index %d outside [0, %d)", ErrMalformed, i64, n)
		}
		if int(i64) <= prev {
			return dst, fmt.Errorf("%w: topk index %d after %d (must be strictly increasing)", ErrMalformed, i64, prev)
		}
		prev = int(i64)
	}
	dst = growVec(dst, n)
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < k; j++ {
		i := binary.LittleEndian.Uint32(body[topkEntrySize*j:])
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[topkEntrySize*j+4:])))
	}
	return dst, nil
}

// growVec returns dst with length n, reusing capacity when it suffices and
// taking from the free list otherwise. Either way the contents are
// unspecified: every decoder writes all n coordinates.
func growVec(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return tensor.Get(n)
}
