package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// Tests for the zero-copy TCP path: Send writes head + payload with one
// writev from the vector's own memory, ReadMessage parses the head and the
// first chunk in the connection's buffered reader and receives the rest
// straight into the destination. The wire bytes, the snapshot semantics and
// every hardening rule must be what they were when each payload was encoded
// into a frame buffer and decoded out of a staging buffer — on both payload
// paths (direct and the per-coordinate one a big-endian host runs).

// payloadPaths are the values of the `direct` argument a host can exercise.
func payloadPaths() []bool {
	if tensor.NativeLE() {
		return []bool{true, false}
	}
	return []bool{false}
}

// awkwardVec is a payload whose bit patterns a numeric round trip would
// lose: quiet and signalling NaNs with payloads, −0, infinities, subnormals.
func awkwardVec(n int) tensor.Vector {
	special := []uint64{
		0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // NaNs (quiet, negative quiet, signalling)
		0x8000000000000000, 0x0000000000000000, // −0, +0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x0000000000000001, 0x800fffffffffffff, // subnormals
	}
	rng := tensor.NewRNG(21)
	v := rng.NormVec(make(tensor.Vector, n), 0, 1)
	for i := range v {
		if i%3 == 0 {
			v[i] = math.Float64frombits(special[(i/3)%len(special)])
		}
	}
	return v
}

func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sinkPeer is a bare listener standing in for a receiving node, so a test
// sees the exact bytes a TCPNode puts on the socket.
type sinkPeer struct {
	ln    net.Listener
	conns chan net.Conn
}

func newSinkPeer(t *testing.T) *sinkPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &sinkPeer{ln: ln, conns: make(chan net.Conn, 1)}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(p.conns)
			return
		}
		p.conns <- c
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

// accept returns the (single) inbound connection with its hello consumed.
func (p *sinkPeer) accept(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	select {
	case c, ok := <-p.conns:
		if !ok {
			t.Fatal("listener closed before a connection arrived")
		}
		t.Cleanup(func() { c.Close() })
		br := bufio.NewReader(c)
		if _, _, err := readHello(br); err != nil {
			t.Fatal(err)
		}
		return c, br
	case <-time.After(5 * time.Second):
		t.Fatal("no inbound connection")
		return nil, nil
	}
}

// (a) Golden wire bytes: what Send puts on a socket is AppendMessage's
// output, for raw, shard, compressed and shard+compressed frames, on both
// payload paths.
func TestTCPSendWireBytesMatchAppendMessage(t *testing.T) {
	vec := awkwardVec(9000) // 72 kB: larger than the head buffer by far
	enc := compress.NewEncoder(compress.Config{Scheme: compress.Float32})
	compressed := func(m Message) Message {
		m.Vec = append(tensor.Vector(nil), m.Vec...)
		if err := CompressMessage(enc, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	shard := ShardMeta{Index: 1, Count: 3, Offset: 9000}
	cases := map[string]Message{
		"raw":              {Kind: KindGradient, Step: 7, Vec: vec},
		"raw-empty":        {Kind: KindParams, Step: -2},
		"shard":            {Kind: KindParams, Step: 8, Vec: vec, Shard: shard},
		"compressed":       compressed(Message{Kind: KindGradient, Step: 9, Vec: vec}),
		"shard+compressed": compressed(Message{Kind: KindPeerParams, Step: 10, Vec: vec, Shard: shard}),
	}
	for name, m := range cases {
		for _, direct := range payloadPaths() {
			peer := newSinkPeer(t)
			node, err := ListenTCP("sender", "127.0.0.1:0", map[string]string{"peer": peer.ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			m.From = "sender"
			want := mustEncode(t, m)

			c, err := node.conn("peer")
			if err != nil {
				t.Fatal(err)
			}
			_, br := peer.accept(t)
			done := make(chan error, 1)
			go func() {
				c.mu.Lock()
				defer c.mu.Unlock()
				if err := c.stage(&m, direct); err != nil {
					done <- err
					return
				}
				done <- c.flush()
			}()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(br, got); err != nil {
				t.Fatalf("%s direct=%v: %v", name, direct, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("%s direct=%v: send: %v", name, direct, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s direct=%v: socket bytes differ from AppendMessage", name, direct)
			}
			if c.iov[0] != nil || c.iov[1] != nil || c.bufs != nil {
				t.Fatalf("%s direct=%v: connection still references the payload after the write", name, direct)
			}
			if (direct || m.IsCompressed()) && cap(c.buf) > 2*(maxFrameHeadSize+MaxFromLen) {
				t.Fatalf("%s direct=%v: head buffer grew to %d bytes (a frame head is at most %d)",
					name, direct, cap(c.buf), maxFrameHeadSize+MaxFromLen)
			}
			node.Close()
		}
	}
}

// (b) Snapshot semantics: Send returns only after every payload byte is in
// the kernel, so mutating the vector right after it returns cannot reach the
// receiver — even for a payload far larger than the socket buffers.
func TestTCPSendIsSnapshot(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", map[string]string{"a": a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const dim = 1 << 20 // 8 MiB on the wire
	vec := tensor.NewRNG(5).NormVec(make(tensor.Vector, dim), 0, 1)
	want := tensor.Clone(vec)
	for round := 0; round < 3; round++ {
		if err := b.Send("a", Message{Kind: KindParams, Step: round, Vec: vec}); err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			vec[i] = -1 // the sender moves on to its next step
		}
		m, ok := a.Recv(10 * time.Second)
		if !ok {
			t.Fatal("no delivery")
		}
		if !sameBits(m.Vec, want) {
			t.Fatalf("round %d: receiver saw the sender's later writes", round)
		}
		copy(vec, want)
	}
}

// (c) A stream cut anywhere — header, first chunk, or the directly read
// remainder — is io.ErrUnexpectedEOF, and a message that does decode
// aliases neither the input nor the reader's buffer.
func TestReadMessageTruncationAndAliasing(t *testing.T) {
	const tail = 256 // coordinates read past the first chunk
	raw := Message{From: "wrk7", Kind: KindGradient, Step: 3,
		Vec: awkwardVec(readChunkBytes/8 + tail)}
	comp := Message{From: "wrk7", Kind: KindGradient, Step: 3, Comp: CompMeta{
		Scheme: uint8(compress.Float32), Dim: readChunkBytes, Data: bytes.Repeat([]byte{0xa5}, readChunkBytes+8*tail)}}
	for name, m := range map[string]Message{"raw": raw, "compressed": comp} {
		frame := mustEncode(t, m)
		var cuts []int
		for c := 0; c < 64; c++ {
			cuts = append(cuts, c)
		}
		for c := len(frame) - 8*tail - 64; c < len(frame); c++ {
			cuts = append(cuts, c)
		}
		for _, direct := range payloadPaths() {
			for _, cut := range cuts {
				var got Message
				err := readMessage(chunkReader(frame[:cut]), &got, direct, nil)
				if cut == 0 && err == io.EOF {
					continue
				}
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s direct=%v cut %d/%d: err = %v, want io.ErrUnexpectedEOF", name, direct, cut, len(frame), err)
				}
			}
			var got Message
			input := append([]byte(nil), frame...)
			br := chunkReader(input)
			if err := readMessage(br, &got, direct, nil); err != nil {
				t.Fatal(err)
			}
			for i := range input {
				input[i] = 0xff
			}
			br.Reset(bytes.NewReader(bytes.Repeat([]byte{0xff}, readChunkBytes)))
			if _, err := br.Peek(readChunkBytes); err != nil { // overwrites the whole buffer
				t.Fatal(err)
			}
			if got.From != m.From || got.Kind != m.Kind || got.Step != m.Step ||
				!sameBits(got.Vec, m.Vec) || !bytes.Equal(got.Comp.Data, m.Comp.Data) {
				t.Fatalf("%s direct=%v: decoded message aliases the input or the reader's buffer", name, direct)
			}
		}
	}
}

// (d) A header-only peer: a valid 15-byte header declaring the largest legal
// payload, then silence. The one chunk the receiver holds for it is the
// connection's buffered reader, which it holds anyway; the read commits
// nothing else — no staging chunk, no part of the 512 MiB the header claims.
func TestReadMessageHeaderOnlyPeerPinsOneChunk(t *testing.T) {
	hdr := mustEncode(t, Message{From: "byz", Kind: KindGradient, Step: 1})[:FrameHeaderSize]
	hdr[11], hdr[12], hdr[13], hdr[14] = 0, 0, 0, 0x04 // vec-len = MaxVecLen = 2²⁶
	partial := append(append([]byte(nil), hdr...), make([]byte, readChunkBytes/2)...)
	for name, stream := range map[string][]byte{"header": hdr, "half a chunk": partial} {
		br := chunkReader(stream)
		var got Message
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ReadMessage(br, nil, &got)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		if cap(got.Vec) != 0 {
			t.Fatalf("%s: committed a vector of %d coordinates", name, cap(got.Vec))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > readChunkBytes/4 {
			t.Fatalf("%s: ReadMessage allocated %d bytes for an unpaid claim (a chunk is %d)", name, grew, readChunkBytes)
		}
	}
}

// (d, continued) What exactly one paid-for chunk buys. A declaration within
// preallocCoords gets its exact-size vector once the first chunk has landed
// in full — 16 MiB for 64 KiB of traffic is the documented worst case, and
// this pins it as the ceiling; one byte short of the chunk commits nothing;
// a declaration one coordinate beyond preallocCoords gets twice the chunk.
func TestReadMessageOneChunkCommitIsBounded(t *testing.T) {
	const from = "byz"
	firstChunk := (readChunkBytes - len(from)) &^ 7 // payload bytes beside the sender ID
	const slack = readChunkBytes / 4                // allocator rounding; a staged chunk would exceed it
	for _, tc := range []struct {
		name    string
		vecLen  int
		payload int // body bytes sent after the sender ID
		ceiling int // bytes ReadMessage may allocate
	}{
		{"exact, chunk short by a byte", preallocCoords, firstChunk - 1, slack},
		{"exact, chunk landed", preallocCoords, firstChunk, 8*preallocCoords + slack},
		{"geometric, chunk landed", preallocCoords + 1, firstChunk, 2*firstChunk + slack},
	} {
		hdr := mustEncode(t, Message{From: from, Kind: KindGradient, Step: 1})[:FrameHeaderSize]
		binary.LittleEndian.PutUint32(hdr[11:], uint32(tc.vecLen))
		stream := append(append(append([]byte(nil), hdr...), from...), make([]byte, tc.payload)...)
		br := chunkReader(stream)
		var got Message
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ReadMessage(br, nil, &got)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", tc.name, err)
		}
		if grew := int(after.TotalAlloc - before.TotalAlloc); grew > tc.ceiling {
			t.Fatalf("%s: ReadMessage allocated %d bytes for %d received (ceiling %d)",
				tc.name, grew, FrameHeaderSize+len(from)+tc.payload, tc.ceiling)
		}
	}
}

// (d, continued) The exact-size path must cover the paper's model: a frame of
// nn.NewCIFARNet's 1,756,426 coordinates (pinned by nn's
// TestSummaryAndTable1ParamCount) gets its vector exact-size from the free
// list (tensor.Get) and never pays the geometric regrowth copies.
func TestPreallocCoversPaperDimension(t *testing.T) {
	const paperDim = 1_756_426
	if preallocCoords < paperDim {
		t.Fatalf("preallocCoords = %d is below the paper's d = %d", preallocCoords, paperDim)
	}
}

// (e) Steady state allocates nothing: a Send on an established connection,
// and a ReadMessage into a Message whose capacity suffices.
func TestZeroCopySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inserts allocations")
	}
	vec := tensor.NewRNG(2).NormVec(make(tensor.Vector, readChunkBytes/8+4096), 0, 1)

	peer := newSinkPeer(t)
	node, err := ListenTCP("sender", "127.0.0.1:0", map[string]string{"peer": peer.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	m := Message{Kind: KindGradient, Step: 1, Vec: vec}
	if err := node.Send("peer", m); err != nil {
		t.Fatal(err)
	}
	_, br := peer.accept(t)
	go io.Copy(io.Discard, br) // drain; allocates nothing per frame
	if n := testing.AllocsPerRun(50, func() {
		if err := node.Send("peer", m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Send allocates %v/op in steady state", n)
	}

	frames := map[string][]byte{
		"raw": mustEncode(t, Message{From: "wrk3", Kind: KindGradient, Step: 5, Vec: vec}),
		"compressed": mustEncode(t, Message{From: "wrk3", Kind: KindGradient, Step: 5, Comp: CompMeta{
			Scheme: uint8(compress.Float32), Dim: len(vec), Data: make([]byte, 4*len(vec))}}),
	}
	for name, frame := range frames {
		for _, direct := range payloadPaths() {
			var out Message
			r := bytes.NewReader(frame)
			br := bufio.NewReaderSize(r, readChunkBytes)
			if n := testing.AllocsPerRun(50, func() {
				r.Reset(frame)
				br.Reset(r)
				if err := readMessage(br, &out, direct, nil); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%s direct=%v: ReadMessage allocates %v/op into a reused Message", name, direct, n)
			}
		}
	}
}

// (f) The per-coordinate path a big-endian host runs produces the same
// message as the direct path, including across the geometric-growth branch.
func TestReadMessagePortablePathMatchesDirect(t *testing.T) {
	if !tensor.NativeLE() {
		t.Skip("only the portable path exists on this host")
	}
	for _, dim := range []int{0, 1, 100, readChunkBytes / 8, readChunkBytes/8 + 1, preallocCoords + 1023} {
		m := Message{From: "ps1", Kind: KindPeerParams, Step: 4, Vec: awkwardVec(dim),
			Shard: ShardMeta{Index: 0, Count: 2, Offset: 0}}
		frame := mustEncode(t, m)
		var a, b Message
		if err := readMessage(chunkReader(frame), &a, true, nil); err != nil {
			t.Fatal(err)
		}
		if err := readMessage(chunkReader(frame), &b, false, nil); err != nil {
			t.Fatal(err)
		}
		if !sameBits(a.Vec, m.Vec) || !sameBits(b.Vec, m.Vec) || a.Shard != b.Shard || a.From != b.From {
			t.Fatalf("dim %d: direct and portable reads disagree", dim)
		}
	}
}

// The dial back-off is for cold start: once a peer has been reached, a
// refused redial costs one attempt, so a straggler whose peers have all
// finished and closed gets through its remaining broadcasts promptly.
func TestTCPRedialAfterPeerClosedFailsFast(t *testing.T) {
	sender, err := ListenTCP("late", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	ids := []string{"p0", "p1", "p2", "p3", "p4"}
	for _, id := range ids {
		peer, err := ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sender.AddPeer(id, peer.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := sender.Send(id, Message{Kind: KindParams, Step: 0, Vec: tensor.Vector{1}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := peer.Recv(5 * time.Second); !ok {
			t.Fatalf("%s never reached", id)
		}
		peer.Close() // finished its run
	}
	vec := make(tensor.Vector, 1<<16)
	start := time.Now()
	failed := 0
	for step := 1; step <= 3; step++ {
		for _, id := range ids {
			if sender.Send(id, Message{Kind: KindParams, Step: step, Vec: vec}) != nil {
				failed++
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("15 sends to closed peers took %v (back-off ran on redial)", elapsed)
	}
	if failed == 0 {
		t.Fatal("no send to a closed peer failed; the test exercised nothing")
	}
}
