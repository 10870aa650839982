package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
		for source, r := range map[string]io.Reader{"in place": chunkReader(frame[:cut]), "staged": bytes.NewReader(frame[:cut])} {
			err := ReadMessage(r, &scratch, &got)
			if cut == 0 {
				if err != io.EOF {
					t.Fatalf("%s, empty stream: err = %v, want io.EOF", source, err)
				}
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s, cut %d: ReadMessage err = %v, want io.ErrUnexpectedEOF", source, cut, err)
			}
		}
	}
}

// chunkReader is the reader ReadMessage gets in the TCP read loop: a
// bufio.Reader of one chunk, here over data.
func chunkReader(data []byte) *bufio.Reader {
	return bufio.NewReaderSize(bytes.NewReader(data), readChunkBytes)
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
		if err := ReadMessage(chunkReader(frame), nil, &got); err == nil {
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
// path, and a reader without a buffer of its own is staged through at most
// one chunk — the memory a header can pin without shipping traffic.
func TestReadMessageOversizedClaimIncrementalPath(t *testing.T) {
	dim := preallocCoords + 1023 // forces the geometric-growth branch
	rng := tensor.NewRNG(4)
	m := Message{From: "wrk5", Kind: KindParams, Step: 11,
		Vec: rng.NormVec(make(tensor.Vector, dim), 0, 1)}
	frame := mustEncode(t, m)
	var scratch []byte
	for source, r := range map[string]io.Reader{"in place": chunkReader(frame), "staged": bytes.NewReader(frame)} {
		var got Message
		if err := ReadMessage(r, &scratch, &got); err != nil {
			t.Fatal(err)
		}
		if cap(scratch) > readChunkBytes {
			t.Fatalf("%s: scratch grew to %d bytes (chunk bound %d)", source, cap(scratch), readChunkBytes)
		}
		if got.From != m.From || got.Kind != m.Kind || got.Step != m.Step || len(got.Vec) != dim {
			t.Fatalf("%s: header mismatch: %q %v %d len=%d", source, got.From, got.Kind, got.Step, len(got.Vec))
		}
		if !sameBits(got.Vec, m.Vec) {
			t.Fatalf("%s: payload corrupted", source)
		}
	}
}

// TestHelloRoundTrip is the hello codec as one table: what AppendHello
// writes reads back, and every frame that is not the one layout — empty or
// oversized ID, a foreign magic, the two magics earlier builds spoke, a
// stream cut at any offset — is refused on the side that meets it.
func TestHelloRoundTrip(t *testing.T) {
	mustAppend := func(id string, caps uint8) []byte {
		t.Helper()
		buf, err := AppendHello(nil, id, caps)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	retired := func(version byte) string { return helloMagic[:3] + string(version) }
	longest := strings.Repeat("x", MaxFromLen)
	type row struct {
		name  string
		frame []byte
		id    string // "" means the reader must refuse the frame
		caps  uint8
	}
	rows := []row{
		{"plain", mustAppend("wrk42", 0), "wrk42", 0},
		{"capabilities", mustAppend("wrk42", 0x0a), "wrk42", 0x0a},
		{"longest ID", mustAppend(longest, 0xff), longest, 0xff},
		{"empty ID declared", []byte(helloMagic + "\x00\x02"), "", 0},
		{"wrong magic", []byte("NOPE\x03abc\x00"), "", 0},
		{"retired magic 1 (magic, ID)", []byte(retired('1') + "\x05wrk42"), "", 0},
		{"retired magic 1 with a trailing byte", []byte(retired('1') + "\x05wrk42\x00"), "", 0},
		{"retired magic 3 (magic, ID, caps, intent, step, replaced)",
			[]byte(retired('3') + "\x03ps3\x02\x01\x47\x00\x00\x00\x00\x00\x00\x00\x00"), "", 0},
	}
	whole := mustAppend("wrk42", 0x0a)
	for cut := 0; cut < len(whole); cut++ {
		rows = append(rows, row{fmt.Sprintf("truncated at %d of %d", cut, len(whole)), whole[:cut], "", 0})
	}
	for _, r := range rows {
		id, caps, err := readHello(bytes.NewReader(r.frame))
		switch {
		case r.id == "" && err == nil:
			t.Errorf("%s: accepted as (%q, %#x)", r.name, id, caps)
		case r.id != "" && (err != nil || id != r.id || caps != r.caps):
			t.Errorf("%s: readHello = (%q, %#x, %v), want (%q, %#x)", r.name, id, caps, err, r.id, r.caps)
		}
	}
	for name, id := range map[string]string{"empty": "", "oversized": longest + "x"} {
		if buf, err := AppendHello([]byte("kept"), id, 0); err == nil || string(buf) != "kept" {
			t.Errorf("AppendHello with an %s ID = %q, %v; want the buffer untouched and an error", name, buf, err)
		}
	}
}

// TestHelloV2Capabilities pins the one hello layout byte for byte (WIRE.md
// §2): magic, ID length, ID, capability byte — always, also when the mask is
// zero.
func TestHelloV2Capabilities(t *testing.T) {
	for _, caps := range []uint8{0, 0x0a} {
		buf, err := AppendHello(nil, "wrk42", caps)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("GYW2\x05wrk42"), caps); !bytes.Equal(buf, want) {
			t.Fatalf("hello with mask %#x = %x, want %x", caps, buf, want)
		}
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
	hello, err := AppendHello(nil, "byz", 0)
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
