package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Fuzz targets for the wire layer: arbitrary bytes fed to the frame
// decoder must never panic (a Byzantine peer controls every byte it
// sends), and well-formed frames must round-trip losslessly. The committed
// corpus keeps the seeds of the retired gob framing as adversarial inputs —
// yesterday's wire format is exactly the kind of almost-structured garbage
// a decoder should shrug off.

// mustEncode frames a message the way TCPNode.Send does.
func mustEncode(tb testing.TB, m Message) []byte {
	tb.Helper()
	buf, err := AppendMessage(nil, &m)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// frameSeeds are the frames both decoder fuzz targets start from: valid
// raw, chunk and compressed frames, and near-misses of each.
func frameSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	add := func(frame []byte) { seeds = append(seeds, frame) }
	add([]byte{})
	add([]byte{0xff, 0x00, 0x01})
	add(mustEncode(tb, Message{From: "ps0", Kind: KindParams, Step: 3, Vec: []float64{1, 2, 3}}))
	add(mustEncode(tb, Message{From: "wrk1", Kind: KindGradient, Step: 0,
		Vec: []float64{math.NaN(), math.Inf(1)}}))
	// A header declaring an absurd payload length: must be rejected before
	// any allocation, not satisfied.
	huge := mustEncode(tb, Message{From: "byz", Kind: KindGradient, Step: 1})
	huge[11], huge[12], huge[13], huge[14] = 0xff, 0xff, 0xff, 0xff
	add(huge)
	// Chunk frames: a middle shard, a degenerate single-shard stream, and a
	// forged extension whose index exceeds its count (decoder must reject).
	add(mustEncode(tb, Message{From: "wrk2", Kind: KindGradient, Step: 5,
		Vec:   []float64{1, 2, 3},
		Shard: ShardMeta{Index: 2, Count: 9, Offset: 6}}))
	add(mustEncode(tb, Message{From: "ps1", Kind: KindPeerParams, Step: 0,
		Vec:   []float64{math.Inf(-1)},
		Shard: ShardMeta{Index: 0, Count: 1, Offset: 0}}))
	forged := mustEncode(tb, Message{From: "byz", Kind: KindParams, Step: 2,
		Vec:   []float64{4},
		Shard: ShardMeta{Index: 0, Count: 2, Offset: 0}})
	forged[15] = 0x07 // index 7 of count 2
	add(forged)

	// Compressed frames. Genuine ones come from the real encoders (float32,
	// top-k, and a compressed SHARD frame);
	// the rest are well-formed frames around adversarial payloads — the wire
	// codec transports them opaquely and bijectively, and the payload
	// decoder must reject every one without panicking or allocating the
	// claimed expansion.
	compFrame := func(scheme uint8, dim int, payload []byte) []byte {
		return mustEncode(tb, Message{From: "wrk3", Kind: KindGradient, Step: 4,
			Comp: CompMeta{Scheme: scheme, Dim: dim, Data: payload}})
	}
	vec := []float64{0.5, -2, 3.25, 1e-9}
	f32enc := compress.NewEncoder(compress.Config{Scheme: compress.Float32})
	if p, err := f32enc.Encode(nil, uint8(KindGradient), 4, 0, vec); err == nil {
		add(compFrame(uint8(compress.Float32), len(vec), p))
	}
	tenc := compress.NewEncoder(compress.Config{Scheme: compress.TopK, TopKFrac: 0.5})
	if p, err := tenc.Encode(nil, uint8(KindGradient), 4, 32, vec); err == nil {
		add(mustEncode(tb, Message{From: "wrk3", Kind: KindGradient, Step: 4,
			Shard: ShardMeta{Index: 1, Count: 3, Offset: 32},
			Comp:  CompMeta{Scheme: uint8(compress.TopK), Dim: len(vec), Data: p}}))
	}
	topk := func(dim int, k uint32, entries ...uint32) []byte { // entries = idx,bits pairs
		p := binary.LittleEndian.AppendUint32(nil, k)
		for _, e := range entries {
			p = binary.LittleEndian.AppendUint32(p, e)
		}
		return compFrame(uint8(compress.TopK), dim, p)
	}
	one := math.Float32bits(1)
	add(topk(4, 3, 1, one))                         // truncated index table (3 claimed, 1 shipped)
	add(topk(4, 1, 100, one))                       // out-of-range index
	add(topk(4, 2, 2, one, 2, one))                 // duplicate index
	add(topk(4, 9, 0, one))                         // k > d claim
	add(topk(4, 2, 3, one, 1, one))                 // non-increasing indices
	add(compFrame(7, 4, []byte{1, 2}))              // unknown scheme byte
	add(compFrame(uint8(compress.Float32), 1, nil)) // empty payload
	// Retired scheme byte 2, carrying what its old keyframe, diff and
	// malformed-tag payloads looked like and a float32-sized body: all
	// must fail typed.
	add(compFrame(2, 4, append([]byte{0x00}, make([]byte, 4*4)...)))
	add(compFrame(2, 4, append([]byte{0x01}, make([]byte, 8+4*4)...)))
	add(compFrame(2, 4, []byte{0x09}))
	add(compFrame(2, 4, make([]byte, 4*4)))
	// Float32 frames for the read loop's in-place path (fuzzLinks): a NaN
	// in the first chunk; a NaN in a piece read after it; a forged sender;
	// a dimension over the links' bound, behind a payload far too short
	// for it. Every float32 frame is also un-negotiated on one link.
	f32 := func(from string, v []float64) []byte {
		p, err := f32enc.Encode(nil, uint8(KindGradient), 4, 0, v)
		if err != nil {
			tb.Fatal(err)
		}
		return mustEncode(tb, Message{From: from, Kind: KindGradient, Step: 4,
			Comp: CompMeta{Scheme: uint8(compress.Float32), Dim: len(v), Data: p}})
	}
	add(f32("wrk3", []float64{0.5, math.NaN(), 3.25, 1e-9}))
	later := make([]float64, 20000) // 80,000 payload bytes: more than the first chunk
	later[19990] = math.Inf(-1)
	add(f32("wrk3", later))
	add(f32("byz", vec))
	add(compFrame(uint8(compress.Float32), 40000, make([]byte, 8)))
	// A compression extension whose enc-len exceeds the declared range's
	// byte bound: rejected from the header, before any staging.
	overLen := compFrame(uint8(compress.Float32), 1, make([]byte, 16))
	binary.LittleEndian.PutUint32(overLen[FrameHeaderSize+1:], 1<<30)
	add(overLen)
	return seeds
}

func FuzzDecodeMessage(f *testing.F) {
	for _, frame := range frameSeeds(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		n, err := DecodeMessage(data, &m)
		// A corrupt or adversarial frame must surface as an error, never a
		// panic; whatever decodes is then subject to the receivers'
		// validator, exercised by the cluster-side fuzz target.
		if err != nil {
			return
		}
		if n < FrameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Decoded messages re-encode to the identical frame (the transport
		// may re-frame messages when relaying between runtimes), and the
		// stream reader agrees with the slice decoder.
		again := mustEncode(t, m)
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode changed the frame: %x vs %x", again, data[:n])
		}
		var viaStream Message
		if err := ReadMessage(chunkReader(data[:n]), nil, &viaStream); err != nil {
			t.Fatalf("stream decode of a valid frame failed: %v", err)
		}
		if diff := messageDiff(&viaStream, &m); diff != "" {
			t.Fatalf("stream decode disagrees: %s", diff)
		}
		if m.IsCompressed() {
			if len(m.Vec) != 0 {
				t.Fatal("compressed frame decoded raw coordinates too")
			}
			// Expansion must never panic, and must fail TYPED on garbage —
			// the receiving node turns exactly these errors into
			// DroppedMalformed instead of a crash. The dimension gate mirrors
			// the node's SetCompression maxDim bound: a mutated top-k frame
			// may legally claim a 2²⁶-coordinate expansion for 12 payload
			// bytes, and no receiver expands beyond its deployment dimension.
			if m.Comp.Dim > 1<<20 {
				return
			}
			cp := m
			if err := DecompressMessage(&cp); err == nil {
				if !compress.Scheme(m.Comp.Scheme).Known() {
					t.Fatalf("scheme %d is unknown but decoded", m.Comp.Scheme)
				}
				if len(cp.Vec) != m.Comp.Dim || cp.IsCompressed() {
					t.Fatalf("decompressed to %d coordinates, declared %d", len(cp.Vec), m.Comp.Dim)
				}
			} else if !errors.Is(err, compress.ErrMalformed) {
				t.Fatalf("decompress failed with an untyped error: %v", err)
			}
		}
	})
}

// FuzzReadMessage feeds arbitrary streams of several frames to the reader
// the network runs — a bufio.Reader of one chunk, read in place — reusing
// one message across the stream's frames as a connection's read loop does.
// Every frame it accepts must re-encode to exactly the bytes it consumed,
// the slice decoder (the reference) must accept the same bytes into the
// same message, and a plain reader staged through one scratch buffer must
// read the same frames and stop where it stops.
func FuzzReadMessage(f *testing.F) {
	seeds := frameSeeds(f)
	for i, frame := range seeds {
		f.Add(frame)
		// Each seed followed by the next, so reuse across frames and a
		// stream that goes bad after a good frame are covered.
		f.Add(append(slices.Clone(frame), seeds[(i+1)%len(seeds)]...))
	}
	links := fuzzLinks(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, link := range links {
			readInPlace(t, stream, link)
		}
		r, plain := bytes.NewReader(stream), bytes.NewReader(stream)
		br := bufio.NewReaderSize(r, readChunkBytes)
		var m, staged Message
		var scratch []byte
		for off := 0; ; {
			err := ReadMessage(br, nil, &m)
			if errStaged := ReadMessage(plain, &scratch, &staged); (err == nil) != (errStaged == nil) {
				t.Fatalf("in place: %v; staged: %v", err, errStaged)
			}
			if err != nil {
				return // a refused or truncated frame ends the connection
			}
			end := len(stream) - r.Len() - br.Buffered()
			if staged := len(stream) - plain.Len(); staged != end {
				t.Fatalf("the staged reader consumed %d bytes, the in-place one %d", staged, end)
			}
			frame := stream[off:end]
			off = end
			if again := mustEncode(t, m); !bytes.Equal(again, frame) {
				t.Fatalf("re-encode changed the frame: %x vs %x", again, frame)
			}
			var ref Message
			n, err := DecodeMessage(frame, &ref)
			if err != nil || n != len(frame) {
				t.Fatalf("slice decoder refused a frame the reader accepted: consumed %d of %d, %v", n, len(frame), err)
			}
			if diff := messageDiff(&m, &ref); diff != "" {
				t.Fatalf("reader disagrees with the slice decoder: %s", diff)
			}
			if diff := messageDiff(&staged, &ref); diff != "" {
				t.Fatalf("staged reader disagrees with the slice decoder: %s", diff)
			}
		}
	})
}

// fuzzLinks are the read loops FuzzReadMessage reads every stream through
// besides ReadMessage: both from peer wrk3 (the compressed seeds' sender;
// any other sender is forged on them) with a 2¹⁵-coordinate bound, one
// licensed for float32 and top-k, one for top-k only, so every float32
// frame is un-negotiated there.
func fuzzLinks(tb testing.TB) []*inbound {
	var links []*inbound
	for _, caps := range []uint8{compress.Float32.Bit() | compress.TopK.Bit(), compress.TopK.Bit()} {
		node, err := ListenTCP("fuzz", "127.0.0.1:0", nil)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = node.Close() })
		if err := node.SetCompression(compress.Config{}, 1<<15); err != nil {
			tb.Fatal(err)
		}
		links = append(links, &inbound{n: node, peer: "wrk3", caps: caps})
	}
	return links
}

// readInPlace reads stream through link's read-loop path — float32 frames
// gated and widened where they lie — in lockstep with the staged reference:
// ReadMessage (DecodeMessage's twin, held to it below), then the read
// loop's rules for a float32 frame (a forged one arrives without payload,
// expandInbound gates and expands the rest through DecompressMessage), then
// tensor.IsFinite. Both must consume the same bytes and fail together,
// deliver the same bits, count the same drops and agree on finiteness.
func readInPlace(t *testing.T, stream []byte, link *inbound) {
	r, plain := bytes.NewReader(stream), bytes.NewReader(stream)
	br := bufio.NewReaderSize(r, readChunkBytes)
	h := link.n.Metrics()
	var scratch []byte
	for {
		var got, ref Message
		unneg, malformed := h.DroppedUnnegotiated.Load(), h.DroppedMalformed.Load()
		err := readMessage(br, &got, true, link)
		errRef := ReadMessage(plain, &scratch, &ref)
		if (err != nil && err != errDropped) != (errRef != nil) {
			t.Fatalf("in place: %v; staged: %v", err, errRef)
		}
		if errRef != nil {
			return
		}
		if staged, end := len(stream)-plain.Len(), len(stream)-r.Len()-br.Buffered(); staged != end {
			t.Fatalf("the staged reader consumed %d bytes, the in-place one %d", staged, end)
		}
		want := metrics.NewNodeMetrics()
		dropped, widened := false, false
		if ref.IsCompressed() && compress.Scheme(ref.Comp.Scheme) == compress.Float32 {
			if ref.From != link.peer {
				ref.Comp = CompMeta{}
			} else {
				dropped = !expandInbound(&ref, link.caps, link.maxDim(), want)
				widened = !dropped
			}
		}
		if (err == errDropped) != dropped {
			t.Fatalf("in place dropped the frame: %v; the reference: %v", err == errDropped, dropped)
		}
		if u, m := h.DroppedUnnegotiated.Load()-unneg, h.DroppedMalformed.Load()-malformed; u != want.DroppedUnnegotiated.Load() || m != want.DroppedMalformed.Load() {
			t.Fatalf("in place counted %d un-negotiated, %d malformed; the reference %d, %d",
				u, m, want.DroppedUnnegotiated.Load(), want.DroppedMalformed.Load())
		}
		if dropped {
			continue
		}
		if diff := messageDiff(&got, &ref); diff != "" {
			t.Fatalf("in place disagrees with the staged reference: %s", diff)
		}
		if finite := tensor.IsFinite(ref.Vec); got.Finite() != finite || got.finite != (widened && finite) {
			t.Fatalf("in place: Finite %v (checked while widening: %v); IsFinite of the reference: %v",
				got.Finite(), got.finite, finite)
		}
	}
}

// messageDiff describes how two decoded messages differ, payload bits
// included; "" when they are the same message.
func messageDiff(a, b *Message) string {
	if a.From != b.From || a.Kind != b.Kind || a.Step != b.Step || a.Shard != b.Shard || len(a.Vec) != len(b.Vec) {
		return fmt.Sprintf("%+v vs %+v", *a, *b)
	}
	for i := range a.Vec {
		if math.Float64bits(a.Vec[i]) != math.Float64bits(b.Vec[i]) {
			return fmt.Sprintf("coordinate %d: %x vs %x", i, math.Float64bits(a.Vec[i]), math.Float64bits(b.Vec[i]))
		}
	}
	if a.Comp.Scheme != b.Comp.Scheme || a.Comp.Dim != b.Comp.Dim || !bytes.Equal(a.Comp.Data, b.Comp.Data) {
		return fmt.Sprintf("compression %+v vs %+v", a.Comp, b.Comp)
	}
	return ""
}
