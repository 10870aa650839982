package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// The pre-compression wire format, pinned byte-for-byte: a node configured
// with `none` compression must emit exactly these frames (under a hello
// whose capability byte is 0, pinned in TestHelloV2Capabilities), so the
// compression subsystem costs a node that does not opt in nothing per frame.
func TestWireGoldenPlainFrames(t *testing.T) {
	plain := Message{From: "ps0", Kind: KindParams, Step: 2, Vec: tensor.Vector{1, -0.5}}
	wantPlain := []byte{
		0x01,                      // kind = params, no flags
		0x02, 0, 0, 0, 0, 0, 0, 0, // step = 2
		0x03, 0, // from-len = 3
		0x02, 0, 0, 0, // vec-len = 2
		'p', 's', '0', // sender
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1.0
		0, 0, 0, 0, 0, 0, 0xe0, 0xbf, // -0.5
	}
	if got := mustEncode(t, plain); !bytes.Equal(got, wantPlain) {
		t.Fatalf("plain frame drifted:\n got %x\nwant %x", got, wantPlain)
	}
	chunk := Message{From: "wrk1", Kind: KindGradient, Step: 7, Vec: tensor.Vector{2},
		Shard: ShardMeta{Index: 1, Count: 3, Offset: 5}}
	wantChunk := []byte{
		0x82,                      // kind = gradient | chunk flag
		0x07, 0, 0, 0, 0, 0, 0, 0, // step = 7
		0x04, 0, // from-len = 4
		0x01, 0, 0, 0, // vec-len = 1
		0x01, 0, // shard index = 1
		0x03, 0, // shard count = 3
		0x05, 0, 0, 0, // shard offset = 5
		'w', 'r', 'k', '1',
		0, 0, 0, 0, 0, 0, 0, 0x40, // 2.0
	}
	if got := mustEncode(t, chunk); !bytes.Equal(got, wantChunk) {
		t.Fatalf("chunk frame drifted:\n got %x\nwant %x", got, wantChunk)
	}
}

// Compressed frames round-trip bijectively through both decoder faces, with
// and without the shard extension, and the extension lands where the spec
// says it does.
func TestCompressedFrameRoundTrip(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}
	msgs := []Message{
		{From: "wrk0", Kind: KindGradient, Step: 3,
			Comp: CompMeta{Scheme: uint8(compress.TopK), Dim: 40, Data: payload}},
		{From: "wrk0", Kind: KindGradient, Step: 3,
			Shard: ShardMeta{Index: 2, Count: 4, Offset: 80},
			Comp:  CompMeta{Scheme: uint8(compress.Delta), Dim: 40, Data: payload}},
	}
	for i, m := range msgs {
		frame := mustEncode(t, m)
		if len(frame) != EncodedSize(&m) {
			t.Fatalf("msg %d: frame %d bytes, EncodedSize %d", i, len(frame), EncodedSize(&m))
		}
		extOff := FrameHeaderSize
		wantKind := byte(m.Kind) | compFlag
		if m.IsShard() {
			extOff += ShardHeaderSize
			wantKind |= chunkFlag
		}
		if frame[0] != wantKind {
			t.Fatalf("msg %d: kind byte %#x, want %#x", i, frame[0], wantKind)
		}
		if frame[extOff] != m.Comp.Scheme {
			t.Fatalf("msg %d: scheme byte %d at %d, want %d", i, frame[extOff], extOff, m.Comp.Scheme)
		}
		if got := binary.LittleEndian.Uint32(frame[extOff+1:]); got != uint32(len(payload)) {
			t.Fatalf("msg %d: enc-len %d, want %d", i, got, len(payload))
		}
		if got := binary.LittleEndian.Uint32(frame[11:]); got != uint32(m.Comp.Dim) {
			t.Fatalf("msg %d: vec-len %d, want Dim %d", i, got, m.Comp.Dim)
		}
		var viaSlice Message
		n, err := DecodeMessage(frame, &viaSlice)
		if err != nil || n != len(frame) {
			t.Fatalf("msg %d: DecodeMessage = %d, %v", i, n, err)
		}
		var viaStream Message
		var scratch []byte
		if err := ReadMessage(bytes.NewReader(frame), &scratch, &viaStream); err != nil {
			t.Fatalf("msg %d: ReadMessage: %v", i, err)
		}
		for name, got := range map[string]Message{"slice": viaSlice, "stream": viaStream} {
			if got.From != m.From || got.Kind != m.Kind || got.Step != m.Step ||
				got.Shard != m.Shard || len(got.Vec) != 0 ||
				got.Comp.Scheme != m.Comp.Scheme || got.Comp.Dim != m.Comp.Dim ||
				!bytes.Equal(got.Comp.Data, m.Comp.Data) {
				t.Fatalf("msg %d: %s decode = %+v, want %+v", i, name, got, m)
			}
		}
		again := mustEncode(t, viaSlice)
		if !bytes.Equal(again, frame) {
			t.Fatalf("msg %d: re-encode changed the frame", i)
		}
	}
}

// The encoder refuses frames no receiver would accept: a payload over the
// declared range's byte bound, a zero dimension, raw coordinates alongside
// a compressed payload.
func TestCompressedFrameEncodeRejections(t *testing.T) {
	bad := []Message{
		{From: "a", Kind: KindGradient, Comp: CompMeta{Scheme: 1, Dim: 1, Data: make([]byte, 8+MaxCompSlack+1)}},
		{From: "a", Kind: KindGradient, Comp: CompMeta{Scheme: 1, Dim: 0, Data: []byte{1}}},
		{From: "a", Kind: KindGradient, Vec: tensor.Vector{1}, Comp: CompMeta{Scheme: 1, Dim: 1, Data: []byte{1}}},
	}
	for i := range bad {
		if _, err := AppendMessage(nil, &bad[i]); err == nil {
			t.Fatalf("message %d encoded", i)
		}
	}
}

// sendRecvTCP ships a deterministic multi-step, multi-kind, sharded and
// whole-vector sequence from one TCP node to another and returns the
// messages in arrival order.
func sendRecvTCP(t *testing.T, cfg compress.Config, maxDim int) []Message {
	t.Helper()
	srv, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SetCompression(compress.Config{}, maxDim); err != nil {
		t.Fatal(err)
	}
	wrk, err := ListenTCP("wrk", "127.0.0.1:0", map[string]string{"srv": srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer wrk.Close()
	if err := wrk.SetCompression(cfg, 0); err != nil {
		t.Fatal(err)
	}
	msgs := compressTestSequence()
	for i := range msgs {
		if err := wrk.Send("srv", msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]Message, 0, len(msgs))
	for range msgs {
		m, ok := srv.Recv(5 * time.Second)
		if !ok {
			t.Fatalf("timed out after %d messages (unnegotiated=%d malformed=%d)",
				len(out), srv.Metrics().DroppedUnnegotiated.Load(), srv.Metrics().DroppedMalformed.Load())
		}
		out = append(out, m)
	}
	if n := srv.Metrics().DroppedUnnegotiated.Load() + srv.Metrics().DroppedMalformed.Load(); n != 0 {
		t.Fatalf("%d honest frames dropped", n)
	}
	return out
}

// compressTestSequence is a fixed traffic pattern: 6 steps of a whole
// params vector plus two gradient shards, dimensions chosen to exercise
// every scheme's stream separation.
func compressTestSequence() []Message {
	rng := tensor.NewRNG(99)
	var msgs []Message
	for step := 0; step < 6; step++ {
		msgs = append(msgs, Message{Kind: KindParams, Step: step,
			Vec: rng.NormVec(make(tensor.Vector, 32), 0, 1)})
		for sh := 0; sh < 2; sh++ {
			msgs = append(msgs, Message{Kind: KindGradient, Step: step,
				Shard: ShardMeta{Index: sh, Count: 2, Offset: 16 * sh},
				Vec:   rng.NormVec(make(tensor.Vector, 16), 0, 1)})
		}
	}
	return msgs
}

// Every scheme delivers over real sockets exactly what a reference
// encoder/decoder pair produces: the transport adds negotiation and
// framing, never different numbers.
func TestTCPCompressedDeliveryMatchesReference(t *testing.T) {
	for _, spec := range []string{"float32", "delta:key=3", "topk:k=0.2"} {
		cfg, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := sendRecvTCP(t, cfg, 64)
		msgs := compressTestSequence()
		enc := compress.NewEncoder(cfg)
		dec := compress.NewDecoder()
		if len(got) != len(msgs) {
			t.Fatalf("%s: %d messages, want %d", spec, len(got), len(msgs))
		}
		for i, m := range msgs {
			payload, err := enc.Encode(nil, uint8(m.Kind), int64(m.Step), m.Shard.Offset, m.Vec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dec.Decode(cfg.Scheme, uint8(m.Kind), int64(m.Step), m.Shard.Offset,
				len(m.Vec), payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := got[i]
			if g.From != "wrk" || g.Kind != m.Kind || g.Step != m.Step || g.Shard != m.Shard ||
				g.IsCompressed() || len(g.Vec) != len(want) {
				t.Fatalf("%s: message %d arrived as %+v", spec, i, g)
			}
			for j := range want {
				if math.Float64bits(g.Vec[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: message %d coordinate %d: got %v, want %v",
						spec, i, j, g.Vec[j], want[j])
				}
			}
		}
	}
}

// `none` over TCP still delivers plainly and counts nothing — the
// subsystem at rest.
func TestTCPCompressionNoneDeliversPlain(t *testing.T) {
	got := sendRecvTCP(t, compress.Config{}, 64)
	msgs := compressTestSequence()
	for i, m := range msgs {
		g := got[i]
		if g.IsCompressed() || len(g.Vec) != len(m.Vec) {
			t.Fatalf("message %d arrived as %+v", i, g)
		}
		for j := range m.Vec {
			if math.Float64bits(g.Vec[j]) != math.Float64bits(m.Vec[j]) {
				t.Fatalf("message %d coordinate %d corrupted", i, j)
			}
		}
	}
}

// rawPeer dials a TCPNode, writes a hand-built hello, and returns the
// socket for frame-level adversarial traffic.
func rawPeer(t *testing.T, srv *TCPNode, id string, caps uint8) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	hello, err := AppendHello(nil, id, caps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	return raw
}

func waitCounter(t *testing.T, read func() uint64, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for read() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, read(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Announce-then-use: compressed frames under a zero capability mask, or
// carrying a scheme outside the announced mask, or with a scheme byte this
// build cannot decode, are dropped and counted — never delivered, never a
// decode attempt against unannounced state.
func TestTCPUnnegotiatedCompressedDropped(t *testing.T) {
	srv, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	enc := compress.NewEncoder(compress.Config{Scheme: compress.Float32})
	payload, err := enc.Encode(nil, uint8(KindGradient), 1, 0, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	comp := Message{From: "byz", Kind: KindGradient, Step: 1,
		Comp: CompMeta{Scheme: uint8(compress.Float32), Dim: 2, Data: payload}}

	// A zero capability mask announces nothing.
	legacy := rawPeer(t, srv, "byz", 0)
	frame := mustEncode(t, comp)
	if _, err := legacy.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, srv.Metrics().DroppedUnnegotiated.Load, 1, "DroppedUnnegotiated")

	// A hello announcing delta does not license float32, and an unknown
	// scheme byte is never licensed.
	wrongCaps := rawPeer(t, srv, "byz2", compress.Delta.Bit())
	unknown := mustEncode(t, Message{From: "byz2", Kind: KindGradient, Step: 1,
		Comp: CompMeta{Scheme: 17, Dim: 2, Data: []byte{1}}})
	reframed := mustEncode(t, Message{From: "byz2", Kind: comp.Kind, Step: comp.Step, Comp: comp.Comp})
	if _, err := wrongCaps.Write(append(reframed, unknown...)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, srv.Metrics().DroppedUnnegotiated.Load, 3, "DroppedUnnegotiated")

	if _, ok := srv.Recv(100 * time.Millisecond); ok {
		t.Fatal("an un-negotiated compressed frame was delivered")
	}
	if srv.Metrics().DroppedMalformed.Load() != 0 {
		t.Fatalf("DroppedMalformed = %d", srv.Metrics().DroppedMalformed.Load())
	}
}

// Announced-but-undecodable frames are dropped and counted as malformed:
// structural garbage, and expansions beyond the SetCompression dimension
// bound.
func TestTCPMalformedCompressedDropped(t *testing.T) {
	srv, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SetCompression(compress.Config{}, 64); err != nil {
		t.Fatal(err)
	}

	peer := rawPeer(t, srv, "byz", compress.TopK.Bit())
	// k=1 entry pointing outside the declared 4-coordinate range.
	bad := binary.LittleEndian.AppendUint32(nil, 1)
	bad = binary.LittleEndian.AppendUint32(bad, 99)
	bad = binary.LittleEndian.AppendUint32(bad, math.Float32bits(1))
	garbage := mustEncode(t, Message{From: "byz", Kind: KindGradient, Step: 1,
		Comp: CompMeta{Scheme: uint8(compress.TopK), Dim: 4, Data: bad}})
	// Structurally valid, but claiming a 4096-coordinate expansion on a
	// node whose dimension bound is 64.
	big := binary.LittleEndian.AppendUint32(nil, 1)
	big = binary.LittleEndian.AppendUint32(big, 0)
	big = binary.LittleEndian.AppendUint32(big, math.Float32bits(1))
	oversize := mustEncode(t, Message{From: "byz", Kind: KindGradient, Step: 2,
		Comp: CompMeta{Scheme: uint8(compress.TopK), Dim: 4096, Data: big}})
	if _, err := peer.Write(append(garbage, oversize...)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, srv.Metrics().DroppedMalformed.Load, 2, "DroppedMalformed")
	if _, ok := srv.Recv(100 * time.Millisecond); ok {
		t.Fatal("a malformed compressed frame was delivered")
	}
	if srv.Metrics().DroppedUnnegotiated.Load() != 0 {
		t.Fatalf("DroppedUnnegotiated = %d", srv.Metrics().DroppedUnnegotiated.Load())
	}
}

// The in-process Compressor wrapper and the TCP transport are the same
// subsystem behind different networks: the same traffic under the same
// configuration delivers bit-identical vectors.
func TestCompressorWrapperMatchesTCP(t *testing.T) {
	for _, spec := range []string{"float32", "delta", "topk:k=0.2"} {
		cfg, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		viaTCP := sendRecvTCP(t, cfg, 64)

		net := NewChanNetwork(nil)
		defer net.Close()
		srvEP, err := net.Register("srv")
		if err != nil {
			t.Fatal(err)
		}
		wrkEP, err := net.Register("wrk")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewCompressor(srvEP, compress.Config{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		wrk, err := NewCompressor(wrkEP, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		msgs := compressTestSequence()
		for i := range msgs {
			if err := wrk.Send("srv", msgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range viaTCP {
			m, ok := srv.Recv(time.Second)
			if !ok {
				t.Fatalf("%s: wrapper delivered %d of %d", spec, i, len(viaTCP))
			}
			w := viaTCP[i]
			if m.From != w.From || m.Kind != w.Kind || m.Step != w.Step || m.Shard != w.Shard ||
				len(m.Vec) != len(w.Vec) {
				t.Fatalf("%s: message %d: wrapper %+v vs TCP %+v", spec, i, m, w)
			}
			for j := range w.Vec {
				if math.Float64bits(m.Vec[j]) != math.Float64bits(w.Vec[j]) {
					t.Fatalf("%s: message %d coordinate %d diverges", spec, i, j)
				}
			}
		}
		if n := srv.Metrics().DroppedUnnegotiated.Load() + srv.Metrics().DroppedMalformed.Load(); n != 0 {
			t.Fatalf("%s: wrapper dropped %d honest frames", spec, n)
		}
	}
}

// Compression composes with the fault injector: faults decide ABOVE the
// codec, so encode order equals wire order and stateful streams stay
// decodable under duplication and reordering — and the whole pipeline is
// deterministic, delivering bit-identical traffic on every rerun of the
// same seed.
func TestCompressionDeterministicUnderDupReorder(t *testing.T) {
	for _, spec := range []string{"delta:key=4", "topk:k=0.3"} {
		cfg, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() ([]Message, uint64) {
			net := NewChanNetwork(nil)
			defer net.Close()
			srvEP, err := net.Register("srv")
			if err != nil {
				t.Fatal(err)
			}
			wrkEP, err := net.Register("wrk")
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewCompressor(srvEP, compress.Config{}, 64)
			if err != nil {
				t.Fatal(err)
			}
			wrkComp, err := NewCompressor(wrkEP, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			inj := NewFaultInjector(FaultConfig{Seed: 11, Duplicate: 0.3, Reorder: 0.3})
			wrk := inj.Wrap(wrkComp)
			msgs := compressTestSequence()
			for i := range msgs {
				if err := wrk.Send("srv", msgs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := wrk.Close(); err != nil { // flush held reorder state
				t.Fatal(err)
			}
			var got []Message
			for {
				m, ok := srv.Recv(200 * time.Millisecond)
				if !ok {
					break
				}
				got = append(got, m)
			}
			return got, srv.Metrics().DroppedUnnegotiated.Load() + srv.Metrics().DroppedMalformed.Load()
		}
		first, drops1 := run()
		second, drops2 := run()
		if len(first) <= len(compressTestSequence())/2 {
			t.Fatalf("%s: only %d messages survived", spec, len(first))
		}
		if drops1 != 0 || drops2 != 0 {
			t.Fatalf("%s: injector-faulted honest traffic was dropped as undecodable (%d, %d)",
				spec, drops1, drops2)
		}
		if len(first) != len(second) {
			t.Fatalf("%s: rerun delivered %d vs %d messages", spec, len(first), len(second))
		}
		for i := range first {
			a, b := first[i], second[i]
			if a.Kind != b.Kind || a.Step != b.Step || a.Shard != b.Shard || len(a.Vec) != len(b.Vec) {
				t.Fatalf("%s: rerun message %d differs: %+v vs %+v", spec, i, a, b)
			}
			for j := range a.Vec {
				if math.Float64bits(a.Vec[j]) != math.Float64bits(b.Vec[j]) {
					t.Fatalf("%s: rerun message %d coordinate %d differs", spec, i, j)
				}
			}
		}
	}
}
