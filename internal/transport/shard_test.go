package transport

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestShardLayoutEdges(t *testing.T) {
	cases := []struct {
		dim, size      int
		count, lastLen int
	}{
		{dim: 10, size: 3, count: 4, lastLen: 1},   // non-dividing: short remainder
		{dim: 10, size: 5, count: 2, lastLen: 5},   // exact division
		{dim: 10, size: 10, count: 1, lastLen: 10}, // size = dim: single shard
		{dim: 10, size: 64, count: 1, lastLen: 10}, // size > dim: clamped to single shard
		{dim: 10, size: 0, count: 1, lastLen: 10},  // unset: whole-vector framing
		{dim: 10, size: 1, count: 10, lastLen: 1},  // one coordinate per shard
	}
	for _, c := range cases {
		l := NewShardLayout(c.dim, c.size)
		if got := l.Count(); got != c.count {
			t.Fatalf("layout(%d,%d): count %d, want %d", c.dim, c.size, got, c.count)
		}
		// Shards must tile [0, dim) exactly, in index order.
		run := 0
		for s := 0; s < l.Count(); s++ {
			lo, hi := l.Bounds(s)
			if lo != run || hi <= lo {
				t.Fatalf("layout(%d,%d): shard %d bounds [%d,%d) break tiling at %d", c.dim, c.size, s, lo, hi, run)
			}
			run = hi
		}
		if run != c.dim {
			t.Fatalf("layout(%d,%d): shards cover %d of %d", c.dim, c.size, run, c.dim)
		}
		lo, hi := l.Bounds(l.Count() - 1)
		if hi-lo != c.lastLen {
			t.Fatalf("layout(%d,%d): last shard %d coords, want %d", c.dim, c.size, hi-lo, c.lastLen)
		}
	}

	l := NewShardLayout(10, 3)
	good := ShardMeta{Index: 3, Count: 4, Offset: 9}
	if !l.CheckMeta(good, 1) {
		t.Fatal("valid final-shard meta rejected")
	}
	for _, bad := range []struct {
		m    ShardMeta
		plen int
	}{
		{ShardMeta{Index: 3, Count: 4, Offset: 9}, 3},  // wrong payload length
		{ShardMeta{Index: 0, Count: 4, Offset: 3}, 3},  // wrong offset for index
		{ShardMeta{Index: 0, Count: 5, Offset: 0}, 3},  // wrong count
		{ShardMeta{Index: 4, Count: 4, Offset: 12}, 0}, // index out of range
	} {
		if l.CheckMeta(bad.m, bad.plen) {
			t.Fatalf("inconsistent meta %+v (payload %d) accepted", bad.m, bad.plen)
		}
	}
}

func TestSplitMessage(t *testing.T) {
	vec := make(tensor.Vector, 10)
	for i := range vec {
		vec[i] = float64(i)
	}
	m := Message{From: "ps0", Kind: KindParams, Step: 3, Vec: vec}

	single := SplitMessage(m, 0)
	if len(single) != 1 || single[0].IsShard() {
		t.Fatalf("size 0 should keep whole-vector framing, got %+v", single)
	}
	single = SplitMessage(m, 10)
	if len(single) != 1 || single[0].IsShard() {
		t.Fatalf("size = dim should keep whole-vector framing, got %+v", single)
	}

	shards := SplitMessage(m, 3)
	if len(shards) != 4 {
		t.Fatalf("expected 4 shards, got %d", len(shards))
	}
	run := 0
	for s, sm := range shards {
		if sm.From != m.From || sm.Kind != m.Kind || sm.Step != m.Step {
			t.Fatalf("shard %d lost its tag: %+v", s, sm)
		}
		if sm.Shard.Index != s || sm.Shard.Count != 4 || sm.Shard.Offset != run {
			t.Fatalf("shard %d meta %+v, want index=%d count=4 offset=%d", s, sm.Shard, s, run)
		}
		for i, v := range sm.Vec {
			if v != vec[run+i] {
				t.Fatalf("shard %d coordinate %d: %v", s, i, v)
			}
		}
		run += len(sm.Vec)
	}
	if run != len(vec) {
		t.Fatalf("shards cover %d of %d coordinates", run, len(vec))
	}
	// Shard payloads alias the original vector (serialisation is the
	// snapshot, exactly as for whole messages).
	vec[0] = 42
	if shards[0].Vec[0] != 42 {
		t.Fatal("shard payload does not alias the source vector")
	}
}

func TestChunkFrameRoundTrip(t *testing.T) {
	m := Message{
		From: "wrk3", Kind: KindGradient, Step: 9,
		Vec:   tensor.Vector{math.NaN(), math.Inf(1), -0.0, 1.5},
		Shard: ShardMeta{Index: 2, Count: 7, Offset: 8},
	}
	frame, err := AppendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != EncodedSize(&m) {
		t.Fatalf("frame is %d bytes, EncodedSize says %d", len(frame), EncodedSize(&m))
	}
	if frame[0]&0x80 == 0 {
		t.Fatal("chunk frame missing the chunk flag")
	}

	var dec Message
	n, err := DecodeMessage(frame, &dec)
	if err != nil || n != len(frame) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if dec.From != m.From || dec.Kind != m.Kind || dec.Step != m.Step || dec.Shard != m.Shard {
		t.Fatalf("decoded %+v, want %+v", dec, m)
	}
	for i := range m.Vec {
		if math.Float64bits(dec.Vec[i]) != math.Float64bits(m.Vec[i]) {
			t.Fatalf("coordinate %d changed bits", i)
		}
	}

	var viaStream Message
	var scratch []byte
	if err := ReadMessage(bytes.NewReader(frame), &scratch, &viaStream); err != nil {
		t.Fatal(err)
	}
	if viaStream.Shard != m.Shard || viaStream.From != m.From {
		t.Fatalf("stream decode disagrees: %+v", viaStream)
	}

	// A whole-vector decode target reused for a chunk frame must come out
	// tagged, and vice versa (no stale shard meta).
	whole := Message{From: "wrk3", Kind: KindGradient, Step: 10, Vec: tensor.Vector{1}}
	wf, err := AppendMessage(nil, &whole)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(wf, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.IsShard() {
		t.Fatalf("whole-vector decode kept stale shard meta %+v", dec.Shard)
	}
}

func TestChunkFrameRejections(t *testing.T) {
	base := Message{From: "x", Kind: KindParams, Step: 1, Vec: tensor.Vector{1, 2}}

	bad := base
	bad.Shard = ShardMeta{Index: 3, Count: 3, Offset: 0}
	if _, err := AppendMessage(nil, &bad); err == nil {
		t.Fatal("index ≥ count accepted by the encoder")
	}
	bad.Shard = ShardMeta{Index: 0, Count: 0, Offset: 0}
	bad.Shard.Count = MaxShardCount + 1
	if _, err := AppendMessage(nil, &bad); err == nil {
		t.Fatal("oversized shard count accepted by the encoder")
	}
	collide := base
	collide.Kind = Kind(0x85)
	if _, err := AppendMessage(nil, &collide); err == nil {
		t.Fatal("kind colliding with the chunk flag accepted")
	}

	good := base
	good.Shard = ShardMeta{Index: 1, Count: 2, Offset: 2}
	frame, err := AppendMessage(nil, &good)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere in the extension or body must error cleanly.
	var m Message
	for cut := 1; cut < len(frame); cut++ {
		if _, err := DecodeMessage(frame[:cut], &m); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
		var scratch []byte
		err := ReadMessage(bytes.NewReader(frame[:cut]), &scratch, &m)
		if err == nil {
			t.Fatalf("stream truncation at %d decoded", cut)
		}
		if cut >= FrameHeaderSize && err != io.ErrUnexpectedEOF {
			t.Fatalf("stream truncation at %d: %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// A forged extension (index ≥ count) must be rejected at the decoder.
	forged := append([]byte(nil), frame...)
	forged[15], forged[16] = 9, 0 // index 9 of count 2
	if _, err := DecodeMessage(forged, &m); err == nil {
		t.Fatal("decoder accepted index ≥ count")
	}
}

// TestCollectorReassemblesChunks checks the one-shard Collector's interop
// path: senders streaming chunk frames — out of order, duplicated,
// interleaved across senders — count toward the quorum exactly when their
// last shard lands, bit-identically to a whole send.
func TestCollectorReassemblesChunks(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	a, _ := net.Register("a")
	b, _ := net.Register("b")
	c, _ := net.Register("c")

	vec := func(seed float64) tensor.Vector {
		v := make(tensor.Vector, 10)
		for i := range v {
			v[i] = seed + float64(i)
		}
		return v
	}
	va, vb, vc := vec(100), vec(200), vec(300)

	// a streams shards in reverse, b interleaves with duplicates, c sends
	// whole — a and b complete only at their last (first-index) shard.
	sa := SplitMessage(Message{Kind: KindParams, Step: 0, Vec: va}, 3)
	sb := SplitMessage(Message{Kind: KindParams, Step: 0, Vec: vb}, 3)
	for i := len(sa) - 1; i >= 1; i-- {
		_ = a.Send("recv", sa[i])
	}
	_ = b.Send("recv", sb[1])
	_ = b.Send("recv", sb[1]) // duplicate shard: ignored
	_ = c.Send("recv", Message{Kind: KindParams, Step: 0, Vec: vc})
	_ = b.Send("recv", sb[0])
	_ = b.Send("recv", sb[3])
	_ = b.Send("recv", sb[2]) // b completes here
	_ = a.Send("recv", sa[0]) // a completes last

	col := wholeCollector(recv, 10, "a", "b", "c")
	msgs, err := collect(col, KindParams, 0, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]tensor.Vector{"a": va, "b": vb, "c": vc}
	// Arrival order: c (whole, immediate), then b, then a.
	order := []string{"c", "b", "a"}
	for i, m := range msgs {
		if m.From != order[i] {
			t.Fatalf("arrival order %v, want %v", []string{msgs[0].From, msgs[1].From, msgs[2].From}, order)
		}
		w := want[m.From]
		if len(m.Vec) != len(w) {
			t.Fatalf("%s: %d coordinates, want %d", m.From, len(m.Vec), len(w))
		}
		for j := range w {
			if m.Vec[j] != w[j] {
				t.Fatalf("%s coordinate %d: %v, want %v", m.From, j, m.Vec[j], w[j])
			}
		}
	}
}

// TestCollectorDropsInconsistentChunkStreams checks the reassembler's
// hardening: a sender whose stream changes shard count or whose shards do
// not tile is discarded, counted, and treated as silence.
func TestCollectorDropsInconsistentChunkStreams(t *testing.T) {
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	byz, _ := net.Register("byz")
	ok, _ := net.Register("ok")

	v := make(tensor.Vector, 6)
	_ = byz.Send("recv", Message{Kind: KindParams, Step: 0, Vec: v[:3],
		Shard: ShardMeta{Index: 0, Count: 2, Offset: 0}})
	_ = byz.Send("recv", Message{Kind: KindParams, Step: 0, Vec: v[:3],
		Shard: ShardMeta{Index: 1, Count: 3, Offset: 3}}) // count changed: assembly dropped
	_ = ok.Send("recv", Message{Kind: KindParams, Step: 0, Vec: v})

	col := wholeCollector(recv, 6, "byz", "ok")
	msgs, err := collect(col, KindParams, 0, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].From != "ok" {
		t.Fatalf("quorum filled by %q, want the consistent sender", msgs[0].From)
	}
	if col.Metrics.DroppedMalformed.Load() == 0 {
		t.Fatal("inconsistent stream not counted as malformed")
	}

	// Non-tiling offsets are caught at completion.
	net2 := NewChanNetwork(nil)
	defer net2.Close()
	recv2, _ := net2.Register("recv")
	byz2, _ := net2.Register("byz")
	_ = byz2.Send("recv", Message{Kind: KindParams, Step: 0, Vec: v[:3],
		Shard: ShardMeta{Index: 0, Count: 2, Offset: 0}})
	_ = byz2.Send("recv", Message{Kind: KindParams, Step: 0, Vec: v[:3],
		Shard: ShardMeta{Index: 1, Count: 2, Offset: 5}}) // gap: 3 expected
	col2 := wholeCollector(recv2, 6, "byz")
	if _, err := collect(col2, KindParams, 0, 1, 200*time.Millisecond); err == nil {
		t.Fatal("non-tiling stream satisfied a quorum")
	}
	if col2.Metrics.DroppedMalformed.Load() == 0 {
		t.Fatal("non-tiling stream not counted as malformed")
	}
}

// shardTestFeed returns n deterministic vectors.
func shardTestFeed(n, d int, base float64) []tensor.Vector {
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		vecs[i] = make(tensor.Vector, d)
		for j := range vecs[i] {
			vecs[i][j] = base + float64(i*d+j)
		}
	}
	return vecs
}

// TestShardCollectorInterleavedAcrossSendersAndSteps drives the
// incremental quorum with shard frames interleaved across senders AND
// steps: the current step folds in per-shard arrival order, near-future
// frames are buffered and consumed by the next Collect, stale frames are
// discarded.
func TestShardCollectorInterleavedAcrossSendersAndSteps(t *testing.T) {
	const (
		dim, size = 10, 4 // shards: [0,4) [4,8) [8,10)
		q         = 2
	)
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	eps := make([]Endpoint, 3)
	for i := range eps {
		eps[i], _ = net.Register(string(rune('a' + i)))
	}
	now := shardTestFeed(3, dim, 0)
	next := shardTestFeed(3, dim, 1000)

	frames := func(vecs []tensor.Vector, step int) [][]Message {
		out := make([][]Message, len(vecs))
		for i := range vecs {
			out[i] = SplitMessage(Message{Kind: KindGradient, Step: step, Vec: vecs[i]}, size)
		}
		return out
	}
	f0, f1 := frames(now, 0), frames(next, 1)

	// Interleave: sender a's step-1 traffic arrives before most of step 0,
	// a stale step -1 frame is mixed in, shard order varies per sender.
	_ = eps[0].Send("recv", f1[0][0])
	_ = eps[0].Send("recv", f0[0][2])
	_ = eps[1].Send("recv", f0[1][2]) // shard 2 complete: a, b
	_ = eps[1].Send("recv", Message{Kind: KindGradient, Step: -1, Vec: now[1]})
	_ = eps[1].Send("recv", f0[1][0])
	_ = eps[2].Send("recv", f0[2][0]) // shard 0 complete: b, c
	_ = eps[0].Send("recv", f1[0][1])
	_ = eps[0].Send("recv", f1[0][2])
	_ = eps[2].Send("recv", f0[2][1])
	_ = eps[0].Send("recv", f0[0][1]) // shard 1 complete: c, a
	_ = eps[1].Send("recv", f1[1][0])
	_ = eps[1].Send("recv", f1[1][1])
	_ = eps[1].Send("recv", f1[1][2])

	col := NewCollector(recv, NewShardLayout(dim, size))
	col.Senders = declared("a", "b", "c", "d")
	type foldRec struct {
		lo, hi  int
		senders []string
		first   float64
	}
	var folds []foldRec
	fold := func(lo, hi int, senders []string, inputs []tensor.Vector) error {
		folds = append(folds, foldRec{lo, hi, append([]string(nil), senders...), inputs[0][0]})
		return nil
	}
	if _, err := col.Collect(KindGradient, 0, q, nil, "", false, fold, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("folded %d shards, want 3", len(folds))
	}
	// Completion order: shard 2 (a,b), shard 0 (b,c), shard 1 (c,a) — each
	// quorum in its own arrival order.
	wantSenders := [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
	wantLo := []int{8, 0, 4}
	for i, f := range folds {
		if f.lo != wantLo[i] {
			t.Fatalf("fold %d covers [%d,%d), want lo %d", i, f.lo, f.hi, wantLo[i])
		}
		for j, s := range wantSenders[i] {
			if f.senders[j] != s {
				t.Fatalf("fold %d senders %v, want %v", i, f.senders, wantSenders[i])
			}
		}
	}

	// The buffered step-1 traffic must satisfy the next Collect without
	// further sends — and the stale step -1 frame must have vanished.
	folds = nil
	if _, err := col.Collect(KindGradient, 1, q, nil, "", false, fold, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("step 1: folded %d shards, want 3", len(folds))
	}
}

// TestShardCollectorPinned checks pinned-membership mode: the first shard
// to fill decides the ordered sender set, later shards wait for exactly
// those senders (folding them in pinned order), and non-member shards are
// discarded rather than buffered.
func TestShardCollectorPinned(t *testing.T) {
	const (
		dim, size = 8, 4
		q         = 2
	)
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	a, _ := net.Register("a")
	b, _ := net.Register("b")
	c, _ := net.Register("c")
	vecs := shardTestFeed(3, dim, 0)
	sa := SplitMessage(Message{Kind: KindGradient, Step: 0, Vec: vecs[0]}, size)
	sb := SplitMessage(Message{Kind: KindGradient, Step: 0, Vec: vecs[1]}, size)
	sc := SplitMessage(Message{Kind: KindGradient, Step: 0, Vec: vecs[2]}, size)

	_ = b.Send("recv", sb[0])
	_ = a.Send("recv", sa[0]) // shard 0 fills: membership pinned to (b, a)
	_ = c.Send("recv", sc[0]) // non-member: dropped
	_ = c.Send("recv", sc[1]) // non-member: dropped
	_ = a.Send("recv", sa[1])
	_ = b.Send("recv", sb[1]) // shard 1 completes for the pinned set

	col := NewCollector(recv, NewShardLayout(dim, size))
	col.Senders = declared("a", "b", "c", "d")
	var got [][]string
	fold := func(lo, hi int, senders []string, inputs []tensor.Vector) error {
		got = append(got, append([]string(nil), senders...))
		// Inputs must be in pinned order for every shard: b first.
		if inputs[0][0] != vecs[1][lo] || inputs[1][0] != vecs[0][lo] {
			t.Fatalf("shard [%d,%d) inputs not in pinned order", lo, hi)
		}
		return nil
	}
	members, err := col.Collect(KindGradient, 0, q, nil, "", true, fold, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0] != "b" || members[1] != "a" {
		t.Fatalf("pinned membership %v, want [b a]", members)
	}
	if len(got) != 2 {
		t.Fatalf("folded %d shards, want 2", len(got))
	}
}

// TestShardCollectorWholeVectorInterop: a whole-vector message satisfies
// every shard of its sender at once, so mixed deployments (sharded and
// unsharded senders) share one quorum.
func TestShardCollectorWholeVectorInterop(t *testing.T) {
	const dim, size = 10, 3
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	a, _ := net.Register("a")
	b, _ := net.Register("b")
	vecs := shardTestFeed(2, dim, 0)

	_ = a.Send("recv", Message{Kind: KindParams, Step: 0, Vec: vecs[0]})
	for _, sm := range SplitMessage(Message{Kind: KindParams, Step: 0, Vec: vecs[1]}, size) {
		_ = b.Send("recv", sm)
	}
	col := NewCollector(recv, NewShardLayout(dim, size))
	col.Senders = declared("a", "b", "c", "d")
	folds := 0
	fold := func(lo, hi int, senders []string, inputs []tensor.Vector) error {
		folds++
		if senders[0] != "a" || senders[1] != "b" {
			t.Fatalf("senders %v, want whole-vector sender first", senders)
		}
		for i := range inputs[0] {
			if inputs[0][i] != vecs[0][lo+i] || inputs[1][i] != vecs[1][lo+i] {
				t.Fatalf("shard [%d,%d) payload mismatch", lo, hi)
			}
		}
		return nil
	}
	if _, err := col.Collect(KindParams, 0, 2, nil, "", false, fold, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if folds != 4 {
		t.Fatalf("folded %d shards, want 4", folds)
	}
}

// TestShardCollectorUnderFaults routes shard frames through the fault
// injector (per-frame duplicates and reorder holds) and checks the
// incremental quorum still completes with correct payloads: duplicates
// hit the per-sender dedup, reordered frames land in whichever shard slot
// they belong to.
func TestShardCollectorUnderFaults(t *testing.T) {
	const (
		dim, size = 12, 4
		senders   = 4
		q         = 3
	)
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	inj := NewFaultInjector(FaultConfig{Seed: 11, Duplicate: 0.4, Reorder: 0.4})
	vecs := shardTestFeed(senders, dim, 0)
	for i := 0; i < senders; i++ {
		ep, _ := net.Register(string(rune('a' + i)))
		fep := inj.Wrap(ep)
		for _, sm := range SplitMessage(Message{Kind: KindGradient, Step: 0, Vec: vecs[i]}, size) {
			_ = fep.Send("recv", sm)
		}
		// Closing the wrapper flushes any reorder-held tail frame — the
		// node-exit path every runtime runs.
		_ = fep.Close()
	}
	col := NewCollector(recv, NewShardLayout(dim, size))
	col.Senders = declared("a", "b", "c", "d")
	byName := map[string]tensor.Vector{"a": vecs[0], "b": vecs[1], "c": vecs[2], "d": vecs[3]}
	folds := 0
	fold := func(lo, hi int, sendersIn []string, inputs []tensor.Vector) error {
		folds++
		seen := map[string]bool{}
		for k, s := range sendersIn {
			if seen[s] {
				t.Fatalf("duplicate sender %q in a shard quorum", s)
			}
			seen[s] = true
			for i := range inputs[k] {
				if inputs[k][i] != byName[s][lo+i] {
					t.Fatalf("shard [%d,%d) from %s corrupted", lo, hi, s)
				}
			}
		}
		return nil
	}
	if _, err := col.Collect(KindGradient, 0, q, nil, "", false, fold, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if folds != 3 {
		t.Fatalf("folded %d shards, want 3", folds)
	}
}

// TestShardCollectorHorizonAndMalformed is the collector's hardening at a
// sharded layout: far-future shards are dropped and counted,
// frames disagreeing with the layout are dropped and counted.
func TestShardCollectorHorizonAndMalformed(t *testing.T) {
	const dim, size = 8, 4
	net := NewChanNetwork(nil)
	defer net.Close()
	recv, _ := net.Register("recv")
	a, _ := net.Register("a")
	b, _ := net.Register("b")

	v := make(tensor.Vector, dim)
	_ = a.Send("recv", Message{Kind: KindGradient, Step: 1000, Vec: v[:4],
		Shard: ShardMeta{Index: 0, Count: 2, Offset: 0}}) // beyond horizon
	_ = a.Send("recv", Message{Kind: KindGradient, Step: 0, Vec: v[:4],
		Shard: ShardMeta{Index: 0, Count: 3, Offset: 0}}) // count disagrees with layout
	_ = a.Send("recv", Message{Kind: KindGradient, Step: 0, Vec: v[:3],
		Shard: ShardMeta{Index: 0, Count: 2, Offset: 0}}) // short payload
	_ = a.Send("recv", Message{Kind: KindGradient, Step: 0, Vec: v[:6]}) // whole, wrong dim
	_ = a.Send("recv", Message{Kind: KindGradient, Step: 0, Vec: v})
	_ = b.Send("recv", Message{Kind: KindGradient, Step: 0, Vec: v})

	col := NewCollector(recv, NewShardLayout(dim, size))
	col.Senders = declared("a", "b", "c", "d")
	fold := func(int, int, []string, []tensor.Vector) error { return nil }
	if _, err := col.Collect(KindGradient, 0, 2, nil, "", false, fold, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if col.Metrics.DroppedFuture.Load() != 1 {
		t.Fatalf("DroppedFuture = %d, want 1", col.Metrics.DroppedFuture.Load())
	}
	if col.Metrics.DroppedMalformed.Load() != 3 {
		t.Fatalf("DroppedMalformed = %d, want 3", col.Metrics.DroppedMalformed.Load())
	}
}

// TestShardCollectorPeakBytes replays one round-robin schedule through the
// collector at both layouts: the sharded layout's peak buffer must stay
// well under the one-shard layout's q·d floor, and its shards must fold
// while later frames are still arriving.
func TestShardCollectorPeakBytes(t *testing.T) {
	const (
		dim, size = 4096, 256
		senders   = 6
		q         = 4
	)
	vecs := shardTestFeed(senders, dim, 0)

	wholeNet := NewChanNetwork(nil)
	defer wholeNet.Close()
	recv, _ := wholeNet.Register("recv")
	for i := 0; i < senders; i++ {
		ep, _ := wholeNet.Register(string(rune('a' + i)))
		_ = ep.Send("recv", Message{Kind: KindParams, Step: 0, Vec: vecs[i]})
	}
	col := wholeCollector(recv, dim, "a", "b", "c", "d", "e", "f")
	if _, err := collect(col, KindParams, 0, q, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if want := q * dim * 8; col.Metrics.PeakBytes() != want {
		t.Fatalf("whole-vector peak %d bytes, want %d", col.Metrics.PeakBytes(), want)
	}

	shardNet := NewChanNetwork(nil)
	defer shardNet.Close()
	recv2, _ := shardNet.Register("recv")
	eps := make([]Endpoint, senders)
	frames := make([][]Message, senders)
	for i := 0; i < senders; i++ {
		eps[i], _ = shardNet.Register(string(rune('a' + i)))
		frames[i] = SplitMessage(Message{Kind: KindParams, Step: 0, Vec: vecs[i]}, size)
	}
	for s := 0; s < len(frames[0]); s++ {
		for i := 0; i < senders; i++ {
			_ = eps[i].Send("recv", frames[i][s])
		}
	}
	scol := NewCollector(recv2, NewShardLayout(dim, size))
	scol.Senders = declared("a", "b", "c", "d", "e", "f")
	sent := senders * len(frames[0])
	folds, overlapped := 0, 0
	fold := func(int, int, []string, []tensor.Vector) error {
		folds++
		if scol.stored < sent {
			overlapped++
		}
		return nil
	}
	if _, err := scol.Collect(KindParams, 0, q, nil, "", false, fold, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if overlapped == 0 {
		t.Fatalf("none of %d shard folds ran before the last of %d frames was buffered", folds, sent)
	}
	if want := q * size * 8; scol.Metrics.PeakBytes() != want {
		t.Fatalf("sharded peak %d bytes, want %d", scol.Metrics.PeakBytes(), want)
	}
	if scol.Metrics.PeakBytes()*4 > col.Metrics.PeakBytes() {
		t.Fatalf("sharded peak %d not well under whole peak %d", scol.Metrics.PeakBytes(), col.Metrics.PeakBytes())
	}
}
