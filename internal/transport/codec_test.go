package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestCodecHeaderLayout(t *testing.T) {
	m := Message{From: "ps7", Kind: KindPeerParams, Step: -3, Vec: tensor.Vector{1.5}}
	buf := mustEncode(t, m)
	if len(buf) != EncodedSize(&m) || len(buf) != FrameHeaderSize+3+8 {
		t.Fatalf("frame length %d", len(buf))
	}
	if Kind(buf[0]) != KindPeerParams {
		t.Fatalf("kind byte %d", buf[0])
	}
	if got := int(int64(binary.LittleEndian.Uint64(buf[1:]))); got != -3 {
		t.Fatalf("step field %d", got) // negative steps must survive the two's-complement trip
	}
	if binary.LittleEndian.Uint16(buf[9:]) != 3 || binary.LittleEndian.Uint32(buf[11:]) != 1 {
		t.Fatal("length fields wrong")
	}
	if string(buf[FrameHeaderSize:FrameHeaderSize+3]) != "ps7" {
		t.Fatal("sender bytes wrong")
	}
	if math.Float64frombits(binary.LittleEndian.Uint64(buf[FrameHeaderSize+3:])) != 1.5 {
		t.Fatal("payload bits wrong")
	}
}

// Every strict prefix of a valid frame must be rejected as short, by both
// decoder faces — a truncated stream can never produce a message.
func TestCodecTruncatedFrameRejected(t *testing.T) {
	m := Message{From: "wrk2", Kind: KindGradient, Step: 9, Vec: tensor.Vector{1, 2, 3, math.NaN()}}
	frame := mustEncode(t, m)
	for cut := 0; cut < len(frame); cut++ {
		var got Message
		if _, err := DecodeMessage(frame[:cut], &got); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("cut %d: DecodeMessage err = %v, want ErrShortFrame", cut, err)
		}
		var scratch []byte
		err := ReadMessage(bytes.NewReader(frame[:cut]), &scratch, &got)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: ReadMessage err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// Oversized declared lengths must be rejected from the 15-byte header
// alone, before any allocation could be sized from them.
func TestCodecOversizedFrameRejected(t *testing.T) {
	base := mustEncode(t, Message{From: "a", Kind: KindParams, Step: 0})
	tooManyCoords := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(tooManyCoords[11:], MaxVecLen+1)
	tooLongFrom := append([]byte(nil), base...)
	binary.LittleEndian.PutUint16(tooLongFrom[9:], MaxFromLen+1)
	for name, frame := range map[string][]byte{"vec": tooManyCoords, "from": tooLongFrom} {
		var got Message
		if _, err := DecodeMessage(frame, &got); err == nil || errors.Is(err, ErrShortFrame) {
			t.Fatalf("%s: DecodeMessage err = %v, want limit error", name, err)
		}
		var scratch []byte
		if err := ReadMessage(bytes.NewReader(frame), &scratch, &got); err == nil {
			t.Fatalf("%s: ReadMessage accepted an oversized header", name)
		}
	}
	// The encoder refuses to produce what no receiver would accept.
	if _, err := AppendMessage(nil, &Message{From: strings.Repeat("x", MaxFromLen+1)}); err == nil {
		t.Fatal("AppendMessage accepted an oversized sender ID")
	}
}

// DecodeMessage consumes exactly one frame, so frames can be streamed
// back-to-back out of one buffer.
func TestCodecBackToBackFrames(t *testing.T) {
	msgs := []Message{
		{From: "wrk0", Kind: KindGradient, Step: 1, Vec: tensor.Vector{1, 2}},
		{From: "ps1", Kind: KindParams, Step: 2},
		{From: "wrk0", Kind: KindPeerParams, Step: 3, Vec: tensor.Vector{-0.5}},
	}
	var stream []byte
	for i := range msgs {
		var err error
		stream, err = AppendMessage(stream, &msgs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var got Message
	for i := range msgs {
		n, err := DecodeMessage(stream, &got)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != msgs[i].From || got.Kind != msgs[i].Kind || got.Step != msgs[i].Step ||
			len(got.Vec) != len(msgs[i].Vec) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, msgs[i])
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes", len(stream))
	}
}

// The ownership contract's zero-alloc promise: encoding into a reused
// buffer and decoding a same-sender stream into a reused Message allocate
// nothing in steady state.
func TestCodecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inserts allocations")
	}
	m := Message{From: "wrk3", Kind: KindGradient, Step: 5,
		Vec: tensor.NewRNG(1).NormVec(make(tensor.Vector, 4096), 0, 1)}
	buf := mustEncode(t, m)
	if n := testing.AllocsPerRun(50, func() {
		var err error
		buf, err = AppendMessage(buf[:0], &m)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("encode allocates %v/op in steady state", n)
	}
	out := Message{Vec: make(tensor.Vector, 0, len(m.Vec))}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := DecodeMessage(buf, &out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode allocates %v/op in steady state", n)
	}
}

// A payload declared larger than the up-front trust threshold must still
// round-trip exactly through the incremental (pay-as-bytes-arrive) read
// path, and the staging buffer must stay chunk-sized — the memory a header
// can pin without shipping traffic.
func TestReadMessageOversizedClaimIncrementalPath(t *testing.T) {
	dim := preallocCoords + 1023 // forces the geometric-growth branch
	rng := tensor.NewRNG(4)
	m := Message{From: "wrk5", Kind: KindParams, Step: 11,
		Vec: rng.NormVec(make(tensor.Vector, dim), 0, 1)}
	frame := mustEncode(t, m)
	var scratch []byte
	var got Message
	if err := ReadMessage(bytes.NewReader(frame), &scratch, &got); err != nil {
		t.Fatal(err)
	}
	if cap(scratch) > readChunkBytes {
		t.Fatalf("scratch grew to %d bytes (chunk bound %d)", cap(scratch), readChunkBytes)
	}
	if got.From != m.From || got.Kind != m.Kind || got.Step != m.Step || len(got.Vec) != dim {
		t.Fatalf("header mismatch: %q %v %d len=%d", got.From, got.Kind, got.Step, len(got.Vec))
	}
	for i := range m.Vec {
		if math.Float64bits(got.Vec[i]) != math.Float64bits(m.Vec[i]) {
			t.Fatalf("coordinate %d corrupted", i)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	buf, err := appendHello(nil, "wrk42", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A zero capability mask emits the legacy v1 hello byte-for-byte: a
	// non-compressing build of this node is wire-identical to a
	// pre-compression one.
	if want := append(append([]byte(helloMagic), 5), "wrk42"...); !bytes.Equal(buf, want) {
		t.Fatalf("v1 hello = %x, want %x", buf, want)
	}
	h, err := readHello(bytes.NewReader(buf))
	if err != nil || h.ID != "wrk42" || h.Caps != 0 {
		t.Fatalf("readHello = %+v, %v", h, err)
	}
	if h.Intent != IntentMember || h.EffectiveStep != 0 || h.Replaces != "" {
		t.Fatalf("v1 hello parsed with roster fields: %+v", h)
	}
	if _, err := appendHello(nil, "", 0); err == nil {
		t.Fatal("empty hello ID accepted")
	}
	if _, err := appendHello(nil, strings.Repeat("x", MaxFromLen+1), 0); err == nil {
		t.Fatal("oversized hello ID accepted")
	}
	if _, err := readHello(bytes.NewReader([]byte("NOPE\x03abc"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := readHello(bytes.NewReader(buf[:4])); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestHelloV2Capabilities(t *testing.T) {
	buf, err := appendHello(nil, "wrk42", 0x0a)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append(append([]byte(helloMagicV2), 5), "wrk42"...), 0x0a); !bytes.Equal(buf, want) {
		t.Fatalf("v2 hello = %x, want %x", buf, want)
	}
	h, err := readHello(bytes.NewReader(buf))
	if err != nil || h.ID != "wrk42" || h.Caps != 0x0a {
		t.Fatalf("readHello = %+v, %v", h, err)
	}
	// Truncated before the capability byte: the header committed the stream
	// to one more byte.
	if _, err := readHello(bytes.NewReader(buf[:len(buf)-1])); err == nil {
		t.Fatal("v2 hello without capability byte accepted")
	}
}

func TestHelloV3Roster(t *testing.T) {
	want := Hello{ID: "ps3", Caps: 0x02, Intent: IntentReplace, EffectiveStep: 71, Replaces: "ps1"}
	buf, err := AppendHelloRoster(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte(helloMagicV3)) {
		t.Fatalf("roster hello magic = %q", buf[:4])
	}
	h, err := readHello(bytes.NewReader(buf))
	if err != nil || h != want {
		t.Fatalf("readHello = %+v, %v (want %+v)", h, err, want)
	}

	// Join and leave round-trip without a replaced ID.
	for _, intent := range []RosterIntent{IntentJoin, IntentLeave} {
		w := Hello{ID: "wrk9", Intent: intent, EffectiveStep: 12}
		buf, err := AppendHelloRoster(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		h, err := readHello(bytes.NewReader(buf))
		if err != nil || h != w {
			t.Fatalf("%s hello = %+v, %v", intent, h, err)
		}
	}

	// A member announcement with zero roster fields downgrades to the v2
	// (or v1) frame, keeping fixed-roster deployments wire-identical.
	buf, err = AppendHelloRoster(nil, Hello{ID: "ps0", Caps: 0x02})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte(helloMagicV2)) {
		t.Fatalf("zero-roster hello did not downgrade: magic %q", buf[:4])
	}

	// Structural rejections, symmetric on both sides.
	if _, err := AppendHelloRoster(nil, Hello{ID: "x", Intent: IntentReplace}); err == nil {
		t.Fatal("replace without a replaced ID accepted")
	}
	if _, err := AppendHelloRoster(nil, Hello{ID: "x", Intent: IntentJoin, Replaces: "y"}); err == nil {
		t.Fatal("join with a replaced ID accepted")
	}
	if _, err := AppendHelloRoster(nil, Hello{ID: "x", Intent: IntentJoin, EffectiveStep: -1}); err == nil {
		t.Fatal("negative effective step accepted")
	}
	full, err := AppendHelloRoster(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 5; cut < len(full); cut++ {
		if _, err := readHello(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("hello truncated at %d bytes accepted", cut)
		}
	}
	// An unknown intent byte is rejected by the reader's validation.
	bad := append([]byte(nil), full...)
	bad[4+1+len("ps3")+1] = 9
	if _, err := readHello(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown roster intent accepted")
	}
}

// A Byzantine peer cannot forge other senders: frames whose From disagrees
// with the connection's hello identity are dropped and counted, so the
// Collector's per-sender dedup keeps counting distinct NODES.
func TestTCPForgedSenderDropped(t *testing.T) {
	srv, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	hello, err := appendHello(nil, "byz", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	// Three forged identities, then one honest frame under the hello name.
	var stream []byte
	for _, from := range []string{"wrk0", "wrk1", "ps0", "byz"} {
		stream, err = AppendMessage(stream, &Message{From: from, Kind: KindGradient, Step: 1, Vec: tensor.Vector{7}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}

	m, ok := srv.Recv(2 * time.Second)
	if !ok {
		t.Fatal("authenticated frame not delivered")
	}
	if m.From != "byz" {
		t.Fatalf("delivered forged sender %q", m.From)
	}
	if _, ok := srv.Recv(100 * time.Millisecond); ok {
		t.Fatal("a forged frame was delivered")
	}
	if got := srv.Metrics().ForgedDropped.Load(); got != 3 {
		t.Fatalf("ForgedDropped = %d, want 3", got)
	}
}

// A stream that cannot produce a well-formed hello is not a peer: nothing
// it sends is delivered.
func TestTCPBadHelloRejected(t *testing.T) {
	srv, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame := mustEncode(t, Message{From: "srv", Kind: KindParams, Step: 0, Vec: tensor.Vector{1}})
	if _, err := raw.Write(append([]byte("XXXX\x03byz"), frame...)); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Recv(150 * time.Millisecond); ok {
		t.Fatal("message delivered over an unauthenticated connection")
	}
}
