package transport

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tensor"
)

// Property: any Message survives a binary-codec round-trip bit-for-bit —
// the wire contract of the TCP transport. Every tenth vector gets a NaN
// and an Inf planted, so exotic IEEE-754 bit patterns are covered, and the
// decode goes through a dirty reused Message to exercise the
// capacity-reuse path of the ownership contract.
func TestMessageCodecRoundTripProperty(t *testing.T) {
	reused := Message{From: "stale", Vec: make(tensor.Vector, 96)}
	f := func(seed uint64, step int, kindRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		d := rng.Intn(64)
		msg := Message{
			From: fmt.Sprintf("node%d", rng.Intn(100)),
			Kind: Kind(kindRaw%3 + 1),
			Step: step,
			Vec:  rng.NormVec(make(tensor.Vector, d), 0, 1e6),
		}
		if d > 1 && seed%10 == 0 {
			msg.Vec[0] = math.NaN()
			msg.Vec[1] = math.Inf(-1)
		}
		buf, err := AppendMessage(nil, &msg)
		if err != nil {
			return false
		}
		n, err := DecodeMessage(buf, &reused)
		if err != nil || n != len(buf) || n != EncodedSize(&msg) {
			return false
		}
		got := reused
		if got.From != msg.From || got.Kind != msg.Kind || got.Step != msg.Step {
			return false
		}
		if len(got.Vec) != len(msg.Vec) {
			return false
		}
		for i := range msg.Vec {
			if math.Float64bits(got.Vec[i]) != math.Float64bits(msg.Vec[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: regardless of arrival order and interleaving with stale/future
// traffic, the Collector returns exactly q distinct senders of the right
// (kind, step), never counting a stale or duplicate message.
func TestCollectorRandomOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		net := NewChanNetwork(nil)
		defer net.Close()
		recv, err := net.Register("srv")
		if err != nil {
			return false
		}
		const senders = 8
		q := 1 + rng.Intn(senders)
		step := 1 + rng.Intn(3)

		// Build a message soup: one valid message per sender, plus
		// duplicates, stale and future traffic, then shuffle.
		type planned struct {
			from string
			m    Message
		}
		var soup []planned
		for s := 0; s < senders; s++ {
			from := fmt.Sprintf("w%d", s)
			soup = append(soup, planned{from, Message{Kind: KindGradient, Step: step, Vec: tensor.Vector{float64(s)}}})
			// Duplicate with the same payload: either copy may win the
			// first-per-sender rule, but the sender must count only once.
			soup = append(soup, planned{from, Message{Kind: KindGradient, Step: step, Vec: tensor.Vector{float64(s)}}})
			soup = append(soup, planned{from, Message{Kind: KindGradient, Step: step - 1, Vec: tensor.Vector{-2}}}) // stale
			soup = append(soup, planned{from, Message{Kind: KindGradient, Step: step + 1, Vec: tensor.Vector{-3}}}) // future
			soup = append(soup, planned{from, Message{Kind: KindPeerParams, Step: step, Vec: tensor.Vector{-4}}})   // other kind
		}
		eps := make(map[string]Endpoint, senders)
		var ids []string
		for s := 0; s < senders; s++ {
			from := fmt.Sprintf("w%d", s)
			ep, err := net.Register(from)
			if err != nil {
				return false
			}
			eps[from] = ep
			ids = append(ids, from)
		}
		perm := rng.Perm(len(soup))
		for _, p := range perm {
			if err := eps[soup[p].from].Send("srv", soup[p].m); err != nil {
				return false
			}
		}

		c := wholeCollector(recv, 1, ids...)
		c.Advance(step)
		msgs, err := collect(c, KindGradient, step, q, 2*time.Second)
		if err != nil || len(msgs) != q {
			return false
		}
		seen := map[string]bool{}
		for _, m := range msgs {
			if seen[m.From] || m.Kind != KindGradient || m.Step != step {
				return false
			}
			// The payload must be the sender's first valid message (its
			// index), never a duplicate/stale/future payload.
			if m.Vec[0] < 0 {
				return false
			}
			seen[m.From] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
