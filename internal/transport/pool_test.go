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

	"repro/internal/tensor"
)

// Ownership tests: who returns a vector to the free list (tensor.Get/Put),
// when, and which vectors never go there.

// quietPool makes the free list deterministic for one test: one processor
// (a sync.Pool's private slot belongs to a processor) and no garbage
// collection (two cycles empty a pool). The race detector's pools still
// drop a quarter of all Puts; recycled reads the poison there instead.
func quietPool(t *testing.T) {
	t.Helper()
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// recycled reports whether every one of vs — vectors of one length, which no
// other test may use — was handed to tensor.Put: in a race build Put
// poisoned them, otherwise the free list hands exactly them back (and this
// call takes them out again). Needs quietPool.
func recycled(vs ...tensor.Vector) bool {
	back := make(map[*float64]bool, len(vs))
	for range vs {
		back[&tensor.Get(cap(vs[0]))[0]] = true
	}
	for _, v := range vs {
		if raceEnabled && v[0] == v[0] || !raceEnabled && !back[&v[:1][0]] {
			return false
		}
	}
	return true
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
	quietPool(t)
	const n = readChunkBytes/8 + 777 // the payload continues past the first chunk
	want := awkwardVec(n)
	frame := mustEncode(t, Message{From: "wrk1", Kind: KindGradient, Step: 2, Vec: want})

	for _, direct := range payloadPaths() {
		var scratch []byte
		pooled := make(tensor.Vector, n)
		tensor.Put(pooled)
		var got Message
		if err := readMessage(bytes.NewReader(frame), &scratch, &got, direct); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Vec, want) {
			t.Fatalf("direct=%v: payload decoded into a pooled vector differs from the wire", direct)
		}
		if !raceEnabled && &got.Vec[0] != &pooled[0] {
			t.Fatalf("direct=%v: the frame's vector is not the one the free list held", direct)
		}

		// Cut the stream inside the part that is read straight into the
		// committed vector.
		pooled = make(tensor.Vector, n)
		tensor.Put(pooled)
		got = Message{}
		err := readMessage(bytes.NewReader(frame[:len(frame)-8]), &scratch, &got, direct)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("direct=%v: truncated stream: err = %v, want io.ErrUnexpectedEOF", direct, err)
		}
		if len(got.Vec) != 0 {
			t.Fatalf("direct=%v: a truncated frame delivered %d coordinates", direct, len(got.Vec))
		}
		if again := tensor.Get(n); &again[0] == &pooled[0] {
			t.Fatalf("direct=%v: the half-filled vector of a truncated frame went back to the free list", direct)
		}
	}
}

// TestCollectorNeverRecyclesALengthItsLayoutDoesNotProduce: a whole vector
// of the wrong dimension and a chunk of the wrong extent are malformed, and
// a stale frame of an odd length is dropped before the layout check — none
// of them reaches tensor.Put, so none of their lengths becomes a size class.
func TestCollectorNeverRecyclesALengthItsLayoutDoesNotProduce(t *testing.T) {
	quietPool(t)
	const dim, size = 1313, 104
	wrongDim, wrongExtent, staleOdd := seq(dim+1, 0), seq(size+1, 0), seq(dim+3, 0)
	ep := &handoff{queue: []Message{
		{From: "a", Kind: KindGradient, Step: 1, Vec: wrongDim},
		{From: "a", Kind: KindGradient, Step: 1, Vec: wrongExtent, Shard: ShardMeta{Index: 0, Count: 13, Offset: 0}},
		{From: "a", Kind: KindGradient, Step: 0, Vec: staleOdd},
	}}
	c := NewCollector(ep, NewShardLayout(dim, size))
	if _, err := c.Collect(KindGradient, 1, 1, nil, "", false, noFold, time.Second); err == nil {
		t.Fatal("a quorum filled although nothing well-formed was sent")
	}
	if got := c.Metrics.DroppedMalformed.Load(); got != 2 {
		t.Fatalf("DroppedMalformed = %d, want 2", got)
	}
	c.Recycle()
	for name, v := range map[string]tensor.Vector{"wrong dimension": wrongDim, "wrong extent": wrongExtent, "stale, odd length": staleOdd} {
		if recycled(v) {
			t.Fatalf("%s: a %d-coordinate vector went to the free list at a (%d, %d) layout", name, len(v), dim, size)
		}
	}
}

// TestCollectorRecyclesWholesNotViews: at a 13-shard layout a whole-vector
// message is cut into 13 views, one per slot; the round recycles the one
// d-vector behind them, once, and only at Recycle — the fold may still be
// reading until then.
func TestCollectorRecyclesWholesNotViews(t *testing.T) {
	quietPool(t)
	const dim, size = 1313, 104 // 12 shards of 104 and one of 65
	whole := seq(dim, 1)
	ep := &handoff{queue: []Message{{From: "a", Kind: KindGradient, Step: 0, Vec: whole}}}
	c := NewCollector(ep, NewShardLayout(dim, size))
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
	if whole[dim-1] != float64(dim) {
		t.Fatal("the whole vector was recycled before Recycle")
	}
	c.Recycle()
	if len(c.spent) != 0 || !recycled(whole) {
		t.Fatal("Recycle did not hand the whole vector to the free list")
	}
}

// TestCollectorRecyclesTheReassembledVector: a 13-chunk stream at a
// one-shard layout is copied into one d-vector from the free list; that
// vector is what the round recycles. The chunk frames are lengths a
// one-shard layout does not produce, so they are left to the garbage
// collector.
func TestCollectorRecyclesTheReassembledVector(t *testing.T) {
	quietPool(t)
	const dim, size = 1414, 111
	parts := SplitMessage(Message{From: "a", Kind: KindGradient, Step: 0, Vec: seq(dim, 1)}, size)
	ep := &handoff{}
	for _, p := range parts {
		ep.queue = append(ep.queue, p.Clone())
	}
	sent := append([]Message(nil), ep.queue...)
	c := wholeCollector(ep, dim)
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
	c.Recycle()
	if !recycled(joined) {
		t.Fatal("Recycle did not hand the reassembled vector to the free list")
	}
	for _, p := range sent {
		if recycled(p.Vec) {
			t.Fatalf("chunk %d (%d coordinates) went to the free list of a one-shard collector", p.Shard.Index, len(p.Vec))
		}
	}
}

// TestCollectorReturnsDroppedFramesAtOnce: a frame the collector drops
// before buffering — stale, duplicate sender, outside the pin, slot already
// folded — is nobody's input, so it goes back without waiting for Recycle.
// Frames pruned when the membership pins go the same way.
func TestCollectorReturnsDroppedFramesAtOnce(t *testing.T) {
	quietPool(t)
	const dim, size = 1222, 611
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
	members, err := c.Collect(KindGradient, 1, 2, nil, "", true, noFold, time.Second)
	if err != nil || len(members) != 2 || members[0] != "a" || members[1] != "b" {
		t.Fatalf("pinned membership %v, err %v; want [a b]", members, err)
	}
	// stale, duplicate sender, pruned at pin time, outside the pin, folded slot
	if !recycled(stale.Vec, dup.Vec, pruned.Vec, outside.Vec, folded.Vec) {
		t.Fatal("a frame dropped before buffering was not returned to the free list at once")
	}
	if len(c.spent) != 4 {
		t.Fatalf("%d spent vectors, want the 4 chunks that were folded", len(c.spent))
	}
}

// TestDecidedRoundDiscardsLateFrames: once Collect has returned, the round's
// stragglers must cost nothing — no buffer, no validation — until Advance
// forgets the round. A round that timed out is not decided: its late frames
// still count, and ResetRound still clears them.
func TestDecidedRoundDiscardsLateFrames(t *testing.T) {
	quietPool(t)
	const dim = 1717
	late := seq(dim, 7)
	ep := &handoff{queue: []Message{
		{From: "a", Kind: KindGradient, Step: 3, Vec: seq(dim, 1)},
		{From: "b", Kind: KindGradient, Step: 3, Vec: seq(dim, 2)},
	}}
	c := wholeCollector(ep, dim)
	validated := 0
	c.Validator = func(Message) bool { validated++; return true }
	if _, err := collect(c, KindGradient, 3, 2, time.Second); err != nil {
		t.Fatal(err)
	}
	bytesBefore, peakBefore, validatedBefore := c.curBytes, c.Metrics.PeakBytes(), validated

	// The straggler arrives while the node waits for the next phase.
	ep.queue = []Message{{From: "c", Kind: KindGradient, Step: 3, Vec: late}}
	if _, err := collect(c, KindPeerParams, 3, 1, time.Second); err == nil {
		t.Fatal("the empty peer round filled")
	}
	if c.curBytes != bytesBefore || c.Metrics.PeakBytes() != peakBefore || validated != validatedBefore ||
		buffered(c, KindGradient, 3) != 0 {
		t.Fatalf("a late frame of a decided round moved the collector: bytes %d → %d, peak %d → %d, validations %d → %d",
			bytesBefore, c.curBytes, peakBefore, c.Metrics.PeakBytes(), validatedBefore, validated)
	}
	if !recycled(late) {
		t.Fatal("the late frame was not returned to the free list")
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

// TestCouriersReturnTheirSnapshot: the snapshot taken at enqueue is the
// couriers' own vector, one for all the links of a broadcast, and it goes
// back once — when the last link's wrapped Send has returned.
func TestCouriersReturnTheirSnapshot(t *testing.T) {
	quietPool(t)
	tos := []string{"n0", "n1", "n2"}
	inner := &borrower{lent: make(chan tensor.Vector, len(tos))}
	c := NewCouriers(inner, MailboxConfig{})
	mine := seq(6464, 1)
	if err := c.Broadcast(tos, Message{Kind: KindParams, Vec: mine}); err != nil {
		t.Fatal(err)
	}
	snapshot := <-inner.lent
	for range tos[1:] {
		if other := <-inner.lent; &other[0] != &snapshot[0] {
			t.Fatal("two links of one broadcast were lent different vectors")
		}
	}
	if err := c.Close(); err != nil { // waits for the link goroutines
		t.Fatal(err)
	}
	if &snapshot[0] == &mine[0] {
		t.Fatal("the couriers lent the caller's own vector, not a snapshot")
	}
	if mine[0] != 1 || mine[6463] != 6464 {
		t.Fatal("the caller's vector was touched")
	}
	if !recycled(snapshot) {
		t.Fatal("the couriers' snapshot was not returned to the free list after the last Send")
	}
	if again := tensor.Get(len(mine)); &again[0] == &snapshot[0] {
		t.Fatal("the snapshot was returned to the free list more than once")
	}
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
