package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Ownership tests: who returns a vector to the free list (tensor.Get/Put),
// when, and which vectors never go there — read off the free list's ledger.

// ledger makes length n's size class, as a collector's first Put at its
// layout's lengths does, and returns how far n's ledger has moved since. n
// must be a length no other test uses.
func ledger(n int) func() int64 {
	tensor.Put(make(tensor.Vector, n))
	base := tensor.Outstanding()[n]
	return func() int64 { return tensor.Outstanding()[n] - base }
}

// classless reports whether nothing ever Put a vector of v's length.
func classless(v tensor.Vector) bool {
	_, ok := tensor.Outstanding()[cap(v)]
	return !ok
}

// handoff is an endpoint whose Recv hands over queued messages as they are,
// vector included — the ownership transfer Endpoint.Recv promises.
type handoff struct{ queue []Message }

func (h *handoff) ID() string                 { return "recv" }
func (h *handoff) Send(string, Message) error { return nil }
func (h *handoff) Close() error               { return nil }
func (h *handoff) Recv(time.Duration) (Message, bool) {
	if len(h.queue) == 0 {
		return Message{}, false
	}
	m := h.queue[0]
	h.queue = h.queue[1:]
	return m, true
}

func seq(n int, base float64) tensor.Vector {
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = base + float64(i)
	}
	return v
}

func noFold(int, int, []string, []tensor.Vector) error { return nil }

// TestReadMessageCommitsFromTheFreeList: the wire reader takes a frame's
// vector from tensor.Get once the first chunk has landed, and a stream that
// breaks off after that point delivers nothing and returns nothing.
func TestReadMessageCommitsFromTheFreeList(t *testing.T) {
	const n = readChunkBytes/8 + 777 // the payload continues past the first chunk
	want := awkwardVec(n)
	frame := mustEncode(t, Message{From: "wrk1", Kind: KindGradient, Step: 2, Vec: want})
	moved := ledger(n)

	for _, direct := range payloadPaths() {
		var scratch []byte
		var got Message
		at := moved()
		if err := readMessage(bytes.NewReader(frame), &scratch, &got, direct); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Vec, want) {
			t.Fatalf("direct=%v: payload decoded into a pooled vector differs from the wire", direct)
		}
		if moved() != at+1 {
			t.Fatalf("direct=%v: the frame's vector did not come from the free list", direct)
		}
		tensor.Put(got.Vec)

		// Cut the stream inside the part that is read straight into the
		// committed vector.
		got = Message{}
		err := readMessage(bytes.NewReader(frame[:len(frame)-8]), &scratch, &got, direct)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("direct=%v: truncated stream: err = %v, want io.ErrUnexpectedEOF", direct, err)
		}
		if len(got.Vec) != 0 {
			t.Fatalf("direct=%v: a truncated frame delivered %d coordinates", direct, len(got.Vec))
		}
		if moved() != at+1 {
			t.Fatalf("direct=%v: the half-filled vector of a truncated frame moved the ledger to %d, want %d: taken, and left to the garbage collector",
				direct, moved(), at+1)
		}
	}
}

// TestCollectorNeverRecyclesALengthItsLayoutDoesNotProduce: a whole vector
// of the wrong dimension and a chunk of the wrong extent are malformed, and
// a stale frame of an odd length is dropped before the layout check — none
// of them reaches tensor.Put, so none of their lengths becomes a size class.
func TestCollectorNeverRecyclesALengthItsLayoutDoesNotProduce(t *testing.T) {
	const dim, size = 1313, 104
	wrongDim, wrongExtent, staleOdd := seq(dim+1, 0), seq(size+1, 0), seq(dim+3, 0)
	ep := &handoff{queue: []Message{
		{From: "a", Kind: KindGradient, Step: 1, Vec: wrongDim},
		{From: "a", Kind: KindGradient, Step: 1, Vec: wrongExtent, Shard: ShardMeta{Index: 0, Count: 13, Offset: 0}},
		{From: "a", Kind: KindGradient, Step: 0, Vec: staleOdd},
	}}
	c := NewCollector(ep, NewShardLayout(dim, size))
	c.Senders = declared("a")
	if _, err := c.Collect(KindGradient, 1, 1, nil, "", false, noFold, time.Second); err == nil {
		t.Fatal("a quorum filled although nothing well-formed was sent")
	}
	if got := c.Metrics.DroppedMalformed.Load(); got != 2 {
		t.Fatalf("DroppedMalformed = %d, want 2", got)
	}
	c.Recycle()
	for name, v := range map[string]tensor.Vector{"wrong dimension": wrongDim, "wrong extent": wrongExtent, "stale, odd length": staleOdd} {
		if !classless(v) {
			t.Fatalf("%s: a %d-coordinate vector went to the free list at a (%d, %d) layout", name, len(v), dim, size)
		}
	}
}

// TestCollectorRecyclesWholesNotViews: at a 13-shard layout a whole-vector
// message is cut into 13 views, one per slot; the round recycles the one
// d-vector behind them, once, and only at Recycle — the fold may still be
// reading until then.
func TestCollectorRecyclesWholesNotViews(t *testing.T) {
	const dim, size = 1313, 104 // 12 shards of 104 and one of 65
	moved := ledger(dim)
	whole := seq(dim, 1)
	ep := &handoff{queue: []Message{{From: "a", Kind: KindGradient, Step: 0, Vec: whole}}}
	c := NewCollector(ep, NewShardLayout(dim, size))
	c.Senders = declared("a")
	if c.Layout.Count() != 13 {
		t.Fatalf("layout has %d shards, want 13", c.Layout.Count())
	}
	folds := 0
	fold := func(lo, hi int, _ []string, inputs []tensor.Vector) error {
		folds++
		if &inputs[0][0] != &whole[lo] || len(inputs[0]) != hi-lo {
			t.Fatalf("shard [%d, %d) is not a view of the sender's vector", lo, hi)
		}
		return nil
	}
	if _, err := c.Collect(KindGradient, 0, 1, nil, "", false, fold, time.Second); err != nil {
		t.Fatal(err)
	}
	if folds != 13 || len(c.spent) != 1 || &c.spent[0][0] != &whole[0] || len(c.spent[0]) != dim {
		t.Fatalf("%d folds left %d spent vectors; want 13 folds and exactly the one whole vector", folds, len(c.spent))
	}
	if whole[dim-1] != float64(dim) || moved() != 0 {
		t.Fatal("the whole vector was recycled before Recycle")
	}
	c.Recycle()
	if len(c.spent) != 0 || moved() != -1 {
		t.Fatalf("Recycle moved the ledger by %d; want the one whole vector handed back once", moved())
	}
}

// TestCollectorRecyclesTheReassembledVector: a 13-chunk stream at a
// one-shard layout is copied into one d-vector from the free list; that
// vector is what the round recycles. The chunk frames are lengths a
// one-shard layout does not produce, so they are left to the garbage
// collector.
func TestCollectorRecyclesTheReassembledVector(t *testing.T) {
	const dim, size = 1414, 111
	moved := ledger(dim)
	parts := SplitMessage(Message{From: "a", Kind: KindGradient, Step: 0, Vec: seq(dim, 1)}, size)
	ep := &handoff{}
	for _, p := range parts {
		ep.queue = append(ep.queue, p.Clone())
	}
	sent := append([]Message(nil), ep.queue...)
	c := wholeCollector(ep, dim, "a")
	var joined tensor.Vector
	fold := func(_, _ int, _ []string, inputs []tensor.Vector) error {
		joined = inputs[0]
		return nil
	}
	if _, err := c.Collect(KindGradient, 0, 1, nil, "", false, fold, time.Second); err != nil {
		t.Fatal(err)
	}
	if len(parts) != 13 || len(c.spent) != 1 || &c.spent[0][0] != &joined[0] || len(joined) != dim {
		t.Fatalf("%d chunks left %d spent vectors; want 13 chunks and exactly the reassembled vector", len(parts), len(c.spent))
	}
	for i, x := range joined {
		if x != float64(i+1) {
			t.Fatalf("reassembled coordinate %d = %v", i, x)
		}
	}
	if moved() != 1 {
		t.Fatalf("the reassembled vector moved the ledger by %d, want 1: taken from the free list", moved())
	}
	c.Recycle()
	if moved() != 0 {
		t.Fatalf("after Recycle the ledger stands at %d; want the reassembled vector handed back once", moved())
	}
	for _, p := range sent {
		if !classless(p.Vec) {
			t.Fatalf("chunk %d (%d coordinates) went to the free list of a one-shard collector", p.Shard.Index, len(p.Vec))
		}
	}
}

// TestCollectorReturnsDroppedFramesAtOnce: a frame the collector drops
// before buffering — stale, duplicate sender, outside the pin, slot already
// folded — is nobody's input, so it goes back without waiting for Recycle.
// Frames pruned when the membership pins go the same way.
func TestCollectorReturnsDroppedFramesAtOnce(t *testing.T) {
	const dim, size = 1222, 611
	moved := ledger(size)
	chunk := func(from string, step, index int) Message {
		return Message{From: from, Kind: KindGradient, Step: step, Vec: seq(size, float64(index)),
			Shard: ShardMeta{Index: index, Count: 2, Offset: index * size}}
	}
	stale, dup := chunk("a", 0, 0), chunk("a", 1, 0)
	pruned, outside, folded := chunk("c", 1, 1), chunk("c", 1, 1), chunk("d", 1, 0)
	ep := &handoff{queue: []Message{
		stale,
		chunk("a", 1, 0), dup,
		pruned,           // slot 1 candidate of a sender that will not make the pin
		chunk("b", 1, 0), // slot 0 fills: the pin is {a, b}, c is pruned from slot 1
		outside, folded,
		chunk("a", 1, 1), chunk("b", 1, 1),
	}}
	c := NewCollector(ep, NewShardLayout(dim, size))
	c.Senders = declared("a", "b", "c", "d")
	members, err := c.Collect(KindGradient, 1, 2, nil, "", true, noFold, time.Second)
	if err != nil || len(members) != 2 || members[0] != "a" || members[1] != "b" {
		t.Fatalf("pinned membership %v, err %v; want [a b]", members, err)
	}
	// stale, duplicate sender, pruned at pin time, outside the pin, folded slot
	if moved() != -5 {
		t.Fatalf("the five frames dropped before buffering moved the ledger by %d, want -5: each back at once", moved())
	}
	if len(c.spent) != 4 {
		t.Fatalf("%d spent vectors, want the 4 chunks that were folded", len(c.spent))
	}
	if c.Recycle(); moved() != -9 {
		t.Fatalf("after Recycle the ledger moved by %d, want -9: the folded chunks back once", moved())
	}
}

// TestDecidedRoundDiscardsLateFrames: once Collect has returned, the round's
// stragglers must cost nothing — no buffer, no validation — until Advance
// forgets the round. A round that timed out is not decided: its late frames
// still count, and ResetRound still clears them.
func TestDecidedRoundDiscardsLateFrames(t *testing.T) {
	const dim = 1717
	moved := ledger(dim)
	late := seq(dim, 7)
	ep := &handoff{queue: []Message{
		{From: "a", Kind: KindGradient, Step: 3, Vec: seq(dim, 1)},
		{From: "b", Kind: KindGradient, Step: 3, Vec: seq(dim, 2)},
	}}
	c := wholeCollector(ep, dim, "a", "b", "c", "p")
	validated := 0
	c.Validator = func(Message) bool { validated++; return true }
	if _, err := collect(c, KindGradient, 3, 2, time.Second); err != nil {
		t.Fatal(err)
	}
	bytesBefore, peakBefore, validatedBefore := c.curBytes, c.Metrics.PeakBytes(), validated

	// The straggler arrives while the node waits for the next phase.
	at := moved()
	ep.queue = []Message{{From: "c", Kind: KindGradient, Step: 3, Vec: late}}
	if _, err := collect(c, KindPeerParams, 3, 1, time.Second); err == nil {
		t.Fatal("the empty peer round filled")
	}
	if c.curBytes != bytesBefore || c.Metrics.PeakBytes() != peakBefore || validated != validatedBefore ||
		buffered(c, KindGradient, 3) != 0 {
		t.Fatalf("a late frame of a decided round moved the collector: bytes %d → %d, peak %d → %d, validations %d → %d",
			bytesBefore, c.curBytes, peakBefore, c.Metrics.PeakBytes(), validatedBefore, validated)
	}
	if moved() != at-1 {
		t.Fatal("the late frame was not returned to the free list once")
	}

	// The peer round above did not fill: it is not decided.
	ep.queue = []Message{{From: "p", Kind: KindPeerParams, Step: 3, Vec: seq(dim, 3)}}
	if _, err := collect(c, KindParams, 3, 1, time.Second); err == nil {
		t.Fatal("the empty params round filled")
	}
	if buffered(c, KindPeerParams, 3) != 1 {
		t.Fatal("a frame for an unfinished round was discarded as if the round were decided")
	}
	c.ResetRound(KindPeerParams, 3)
	if buffered(c, KindPeerParams, 3) != 0 || c.curBytes != bytesBefore {
		t.Fatal("ResetRound left the unfinished round's frame buffered")
	}

	// Advance forgets decided rounds below the new step.
	c.Advance(4)
	if len(c.decided) != 0 {
		t.Fatalf("Advance(4) kept %d decided rounds of step 3", len(c.decided))
	}
}

// borrower is an endpoint that remembers which vector its Send was lent —
// for identity only; it never reads it after Send returns.
type borrower struct {
	handoff
	lent chan tensor.Vector
}

func (b *borrower) Send(_ string, m Message) error {
	b.lent <- m.Vec
	return nil
}

// TestReadLoopReusesItsBufferedReader: connections that come and go must not
// cost a 64 KiB reader each.
func TestReadLoopReusesItsBufferedReader(t *testing.T) {
	gc := debug.SetGCPercent(-1) // a collection would empty the pool under test
	defer debug.SetGCPercent(gc)
	node, err := ListenTCP("srv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	hello, err := AppendHello(nil, "peer", 0)
	if err != nil {
		t.Fatal(err)
	}
	// visit says hello and hangs up, then waits for the node to close its
	// side — which the read loop does after it has put its reader back.
	visit := func() {
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("read loop did not hang up after its peer did: %v", err)
		}
	}
	visit() // the first connection allocates the reader
	const visits = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < visits; i++ {
		visit()
	}
	runtime.ReadMemStats(&after)
	// Half, not none: the race detector's pools drop a quarter of their Puts.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > visits/2*(1<<16) {
		t.Fatalf("%d short-lived connections allocated %d bytes: more than a 64 KiB reader for every second one", visits, grew)
	}
}

// TestRecycledConnReaderLeaksNothing: a read loop's pooled state — the
// buffered reader, the first-chunk scratch and the compressed-payload
// buffer — passes from one connection to the next. A connection of large
// frames leaves all three grown and full of its bytes; the smaller frames
// of the next connection must still read exactly as they were sent, and
// exactly as through a fresh reader.
func TestRecycledConnReaderLeaksNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	compressed := func(cfg compress.Config, m Message) Message {
		if err := CompressMessage(compress.NewEncoder(cfg), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	f32 := compress.Config{Scheme: compress.Float32}
	topk := compress.Config{Scheme: compress.TopK, TopKFrac: 0.1}
	const longID = "a-sender-id-much-longer-than-the-next-connection's"
	large := []Message{
		{From: longID, Kind: KindGradient, Step: 1, Vec: awkwardVec(20000)}, // first chunk fills the scratch
		compressed(f32, Message{From: longID, Kind: KindParams, Step: 2, Vec: awkwardVec(40000)}),
		compressed(topk, Message{From: longID, Kind: KindGradient, Step: 3,
			Vec: tensor.NewRNG(8).NormVec(make(tensor.Vector, 30000), 0, 1)}),
	}
	small := []Message{
		{From: "w2", Kind: KindParams, Step: 4, Vec: awkwardVec(100)},
		compressed(f32, Message{From: "w2", Kind: KindGradient, Step: 5, Vec: awkwardVec(300)}),
		compressed(topk, Message{From: "w2", Kind: KindPeerParams, Step: 6,
			Vec: tensor.NewRNG(9).NormVec(make(tensor.Vector, 1000), 0, 1), Shard: ShardMeta{Index: 1, Count: 2, Offset: 1000}}),
		{From: "w2", Kind: KindGradient, Step: 7, Vec: awkwardVec(50), Shard: ShardMeta{Index: 0, Count: 2}},
	}
	// read sends msgs over a new loopback connection and reads them back
	// through rd, each with its compressed payload copied out of rd's buffer.
	read := func(rd *connReader, msgs []Message) []Message {
		t.Helper()
		var stream []byte
		for _, m := range msgs {
			stream = append(stream, mustEncode(t, m)...)
		}
		go func() {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			_, _ = c.Write(stream)
		}()
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rd.br.Reset(c)
		defer rd.br.Reset(nil)
		got := make([]Message, len(msgs))
		for i := range got {
			m, err := rd.next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			m.Comp.Data = bytes.Clone(m.Comp.Data)
			got[i] = m
		}
		if _, err := rd.next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		return got
	}
	fresh := func() *connReader { return readers.New().(*connReader) }

	recycled := fresh()
	read(recycled, large)
	if cap(recycled.scratch) < readChunkBytes/2 || cap(recycled.comp) < 4*40000 {
		t.Fatalf("the large connection left scratch %d and comp %d bytes: it did not exercise their reuse",
			cap(recycled.scratch), cap(recycled.comp))
	}
	got, want := read(recycled, small), read(fresh(), small)
	for i, sent := range small {
		for side, m := range map[string]*Message{"recycled": &got[i], "fresh": &want[i]} {
			if m.From != sent.From || m.Kind != sent.Kind || m.Step != sent.Step || m.Shard != sent.Shard ||
				m.Comp.Scheme != sent.Comp.Scheme || m.Comp.Dim != sent.Comp.Dim ||
				!bytes.Equal(m.Comp.Data, sent.Comp.Data) || !sameBits(m.Vec, sent.Vec) {
				t.Fatalf("frame %d through the %s reader differs from the frame sent", i, side)
			}
			if err := DecompressMessage(m); err != nil {
				t.Fatalf("frame %d through the %s reader: %v", i, side, err)
			}
		}
		if !sameBits(got[i].Vec, want[i].Vec) {
			t.Fatalf("frame %d decodes differently through the recycled reader", i)
		}
	}
}

// queued waits until box holds want messages and returns their vectors, in
// arrival order.
func queued(t *testing.T, box *Mailbox, want int) []tensor.Vector {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for box.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived", box.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
	box.mu.Lock()
	defer box.mu.Unlock()
	var vs []tensor.Vector
	for e := box.head; e != nil; e = e.next {
		vs = append(vs, e.msg.Vec)
	}
	return vs
}

// TestClosingTCPNodeReturnsUnreadFrames: the frames a node's read loops
// queued and its node loop never read are the node's to hand back when it
// closes — each once, and only into a size class that already exists, so a
// frame of a length nobody vouched for stays with the garbage collector.
func TestClosingTCPNodeReturnsUnreadFrames(t *testing.T) {
	const n, odd = 1919, 1921
	moved := ledger(n)
	recv, err := ListenTCP("recv", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := ListenTCP("send", "127.0.0.1:0", map[string]string{"recv": recv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	for step, vec := range []tensor.Vector{seq(n, 1), seq(n, 2), seq(odd, 3), seq(n, 4)} {
		if err := send.Send("recv", Message{Kind: KindGradient, Step: step, Vec: vec}); err != nil {
			t.Fatal(err)
		}
	}
	unread := queued(t, recv.box, 4)
	if moved() != 3 {
		t.Fatalf("three queued frames of a classed length moved the ledger by %d, want 3", moved())
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if moved() != 0 {
		t.Fatalf("after Close the ledger stands at %d; want the unread frames each handed back once", moved())
	}
	if !classless(unread[2]) {
		t.Fatalf("an unread %d-coordinate frame, a length with no class, went to the free list", odd)
	}
}

// TestEveryDisposalReleasesOnce: each way a transport layer disposes of a
// message nobody will receive — a mailbox shedding or shutting, a network
// going down under its queued and delayed deliveries, a closed Couriers
// refusing a broadcast, the fault injector after a deferred Send — hands
// its vector back exactly once (Message.Release), and one of a length with
// no class not at all. The five tests below run one group of rows each.
func TestEveryDisposalReleasesOnce(t *testing.T) { releasesOnce(t, "") }

// A bounded inbound mailbox hands back what it sheds — rejected, evicted,
// put after Close — and a courier outbox only its copy's lease share.
func TestMailboxDropsReturnUnreadFrames(t *testing.T) { releasesOnce(t, "mailbox") }

// The in-process network hands back what its endpoints never received, on
// every way down, and a send's clone that finds no destination.
func TestClosingChanNetworkReturnsUnreadFrames(t *testing.T) { releasesOnce(t, "network") }

// A closed outbox takes no share: the copy's share is released on the spot.
func TestLeaseReleasedByPutAfterClose(t *testing.T) { releasesOnce(t, "lease") }

// A closed Couriers refuses a broadcast and hands its snapshot straight back.
func TestCouriersBroadcastAfterClose(t *testing.T) { releasesOnce(t, "closed couriers") }

// The couriers lend every link of a broadcast one snapshot of their own and
// hand it back once the last link's Send has returned.
func TestCouriersReturnTheirSnapshot(t *testing.T) { releasesOnce(t, "couriers") }

// releasesOnce runs the disposal rows of one group ("" for all), each on a
// length of its own, and checks the ledger of that length.
func releasesOnce(t *testing.T, group string) {
	msg := func(from string, v tensor.Vector) Message { return Message{From: from, Kind: KindGradient, Vec: v} }
	inbound := func(p OverflowPolicy) *Mailbox { return NewMailboxWith(MailboxConfig{Cap: 1, Policy: p}) }
	leased := func(n, refs int) (*lease, Message) {
		l := &lease{vec: seq(n, 7)}
		l.refs.Store(int32(refs))
		m := msg("a", l.vec)
		m.lease = l
		return l, m
	}
	for _, row := range []struct {
		group, name string
		n           int
		// run disposes of messages of length n and returns the ledger's
		// wanted move: the vectors it made itself that went back, negated.
		run func(t *testing.T, n int) int64
	}{
		{"mailbox", "an inbound mailbox rejects, evicts, refuses after Close", 2525, func(t *testing.T, n int) int64 {
			box, kept, odd := inbound(DropNewest), seq(n, 1), seq(n+2, 3)
			box.Put(msg("a", kept))
			box.Put(msg("a", seq(n, 2))) // rejected
			box.Put(msg("a", odd))       // rejected, of a length with no class
			if got, ok := box.Recv(0); !ok || &got.Vec[0] != &kept[0] || !classless(odd) {
				t.Fatal("the queued frame was not delivered untouched, or the odd one went to the free list")
			}
			box = inbound(DropOldest)
			box.Put(msg("a", seq(n, 4))) // evicted by the next
			box.Put(msg("a", seq(n, 5)))
			box.Close()
			box.Put(msg("b", seq(n, 6))) // refused
			return -3
		}},
		{"mailbox", "an outbox sheds a share of the lease", 2828, func(t *testing.T, n int) int64 {
			out := newMailbox(MailboxConfig{Cap: 1, Policy: DropNewest}, metrics.NewNodeMetrics(), true)
			l, shared := leased(n, 2)
			out.Put(shared)
			out.Put(shared) // rejected: gives up one share, and the snapshot stays out
			if l.refs.Load() != 1 || l.vec == nil {
				t.Fatalf("a rejected copy left %d shares, want 1 and the snapshot out", l.refs.Load())
			}
			got, _ := out.Recv(0)
			got.Release() // the last share returns the snapshot
			return -1
		}},
		{"lease", "a closed outbox refuses a leased copy", 3434, func(t *testing.T, n int) int64 {
			box := newMailbox(MailboxConfig{Cap: 1, Policy: DropOldest}, metrics.NewNodeMetrics(), true)
			box.Close()
			l, shared := leased(n, 2)
			box.Put(shared)
			if box.Metrics().DroppedClosed.Load() != 1 || l.vec == nil {
				t.Fatal("the refused copy was not counted, or the snapshot went back while a share was still out")
			}
			l.release()
			return -1
		}},
		{"network", "every way an endpoint goes down", 2121, func(t *testing.T, n int) int64 {
			for _, way := range []string{"endpoint Close", "Unregister", "network Close"} {
				network := NewChanNetwork(nil)
				a, _ := network.Register("a")
				b, _ := network.Register("b")
				for step, vec := range []tensor.Vector{seq(n, 1), seq(n+2, 2), seq(n, 3)} {
					if err := a.Send("b", Message{Kind: KindParams, Step: step, Vec: vec}); err != nil {
						t.Fatal(err)
					}
				}
				unread := queued(t, b.(*chanEndpoint).box, 3)
				switch way {
				case "endpoint Close":
					b.Close()
				case "Unregister":
					network.Unregister("b")
				}
				network.Close()
				if !classless(unread[1]) {
					t.Fatalf("%s: an unread frame of a length with no class went to the free list", way)
				}
			}
			return 0 // the two clones of a classed length each time, taken and handed back
		}},
		{"network", "a delivery delayed past the network's Close, a send after it", 2424, func(t *testing.T, n int) int64 {
			network := NewChanNetwork(func(string, string) time.Duration { return 20 * time.Millisecond })
			a, _ := network.Register("a")
			network.Register("b")
			if err := a.Send("b", Message{Kind: KindParams, Vec: seq(n, 1)}); err != nil {
				t.Fatal(err)
			}
			network.Close()
			if got := network.Metrics("b").DroppedClosed.Load(); got != 1 {
				t.Fatalf("DroppedClosed = %d, want the one delayed delivery", got)
			}
			if a.Send("b", Message{Kind: KindParams, Vec: seq(n, 2)}) == nil {
				t.Fatal("a send to a closed network succeeded")
			}
			return 0 // the first Send's clone, taken and handed back
		}},
		{"couriers", "a broadcast's one snapshot, after the last Send", 6464, func(t *testing.T, n int) int64 {
			inner := &borrower{lent: make(chan tensor.Vector, 3)}
			c := NewCouriers(inner, MailboxConfig{})
			mine := seq(n, 1)
			if err := c.Broadcast([]string{"n0", "n1", "n2"}, Message{Kind: KindParams, Vec: mine}); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil { // waits for the link goroutines
				t.Fatal(err)
			}
			a, b, d := <-inner.lent, <-inner.lent, <-inner.lent
			if &a[0] != &b[0] || &a[0] != &d[0] || &a[0] == &mine[0] || mine[0] != 1 || mine[n-1] != float64(n) {
				t.Fatal("the links were not all lent one snapshot of the caller's untouched vector")
			}
			return 0 // the snapshot, taken and handed back
		}},
		{"closed couriers", "a closed Couriers refuses a broadcast", 3535, func(t *testing.T, n int) int64 {
			inner := &borrower{lent: make(chan tensor.Vector, 1)}
			c := NewCouriers(inner, MailboxConfig{})
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c.Broadcast([]string{"n0", "n1"}, Message{Vec: seq(n, 1)}) == nil || len(inner.lent) != 0 {
				t.Fatal("a closed Couriers took the broadcast")
			}
			return 0 // its snapshot, taken and handed back
		}},
		{"faults", "the fault injector's delayed and held copies", 3636, func(t *testing.T, n int) int64 {
			for _, cfg := range []FaultConfig{{Seed: 1, DelayRate: 1, DelaySpike: 0.002}, {Seed: 1, Reorder: 1}} {
				inner := &borrower{lent: make(chan tensor.Vector, 3)}
				ep := NewFaultInjector(cfg).Wrap(inner)
				for step := range 3 {
					if err := ep.Send("n0", Message{Kind: KindParams, Step: step, Vec: seq(n, 1)}); err != nil {
						t.Fatal(err)
					}
				}
				// Close flushes the held copy and waits for the delayed ones.
				if err := ep.Close(); err != nil || len(inner.lent) != 3 {
					t.Fatalf("%d of 3 frames were delivered (Close: %v)", len(inner.lent), err)
				}
			}
			return 0 // every copy taken and handed back
		}},
	} {
		if group != "" && row.group != group {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			moved := ledger(row.n)
			if want := row.run(t, row.n); moved() != want {
				t.Fatalf("the ledger of length %d moved by %d, want %d", row.n, moved(), want)
			}
		})
	}
}

// TestMailboxReusesItsEntries: a mailbox makes a queue entry only when none
// is free, so it holds as many as its peak length, and an entry that went
// back to the free chain keeps no message reachable.
func TestMailboxReusesItsEntries(t *testing.T) {
	box := NewMailbox()
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			box.Put(Message{From: "a", Step: i, Vec: tensor.Vector{1}})
		}
		for range 5 {
			if _, ok := box.Recv(0); !ok {
				t.Fatal("a queued message was not delivered")
			}
		}
	}
	entries := 0
	for e := box.free; e != nil; e = e.next {
		entries++
		if e.msg.Vec != nil || e.msg.lease != nil || e.peer != nil || e.prev != nil || e.pnext != nil || e.pprev != nil {
			t.Fatal("a free entry still references a message or its chains")
		}
	}
	if entries != 5 {
		t.Fatalf("three rounds of five messages left %d entries, want the peak length 5", entries)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		box.Put(Message{From: "a"})
		box.Recv(0)
	}); allocs != 0 {
		t.Fatalf("a Put/Recv round trip allocates %v times, want 0", allocs)
	}
}

// TestCollectorReusesRoundBuffers: a decided round's buffer — its slots'
// candidate lists and dedup sets — serves the next round, emptied: nothing
// of the previous round's messages stays reachable from it.
func TestCollectorReusesRoundBuffers(t *testing.T) {
	const dim = 3131
	ep := &handoff{}
	c := NewCollector(ep, NewShardLayout(dim, 1000))
	c.Senders = declared("a", "b", "c")
	bufs := make(map[*stepBuf]bool)
	for step := 0; step < 4; step++ {
		c.Advance(step)
		for _, from := range []string{"a", "b", "c"} {
			ep.queue = append(ep.queue, Message{From: from, Kind: KindGradient, Step: step, Vec: seq(dim, 1)})
		}
		_, err := c.Collect(KindGradient, step, 3, nil, "", false, func(int, int, []string, []tensor.Vector) error {
			bufs[c.buf[collectorKey{KindGradient, step}]] = true
			return nil
		}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(bufs) != 1 || len(c.free) != 1 {
		t.Fatalf("four rounds used %d buffers and kept %d, want one", len(bufs), len(c.free))
	}
	for _, s := range c.free[0].slots {
		if len(s.msgs) != 0 || len(s.seen) != 0 || s.folded || cap(s.msgs) < 3 {
			t.Fatalf("a retired slot holds %d messages, %d senders, folded=%v, capacity %d; want an empty slot with capacity ≥ 3",
				len(s.msgs), len(s.seen), s.folded, cap(s.msgs))
		}
		for _, m := range s.msgs[:cap(s.msgs)] {
			if m.Vec != nil {
				t.Fatal("a retired slot keeps a message's vector reachable")
			}
		}
	}
}
