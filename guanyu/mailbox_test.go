package guanyu_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/guanyu"
)

// TestWithMailboxValidation: the mailbox bound is a wire concern, so it is
// Live-only, and a non-positive cap or unknown policy is rejected at build
// time, not at run time.
func TestWithMailboxValidation(t *testing.T) {
	if _, err := guanyu.New(quickOpts(
		guanyu.WithMailboxSpec("drop-oldest:cap=64"))...); err == nil ||
		!strings.Contains(err.Error(), "Live") {
		t.Fatalf("bounded mailbox under the Sim default: %v, want a Live-only error", err)
	}
	if _, err := guanyu.New(quickOpts(guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMailboxSpec("drop-oldest:cap=0"))...); err == nil {
		t.Fatal("mailbox cap=0 accepted")
	}
	if _, err := guanyu.New(quickOpts(guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMailboxSpec("lossy:cap=4"))...); err == nil {
		t.Fatal("unknown mailbox policy accepted")
	}
	if _, err := guanyu.New(quickOpts(guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMailboxSpec("none"))...); err != nil {
		t.Fatalf("\"none\" spec must keep the unbounded default: %v", err)
	}
	if _, err := guanyu.New(quickOpts(guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMailboxSpec("backpressure:cap=32"))...); err != nil {
		t.Fatalf("valid bounded spec rejected: %v", err)
	}
}

// TestLiveBoundedMailboxThroughBuilder runs the quick deployment with the
// actor runtime armed — bounded inbound mailboxes and per-link couriers —
// and the run must converge exactly like the unbounded one: the quick
// schedule never overflows, so the bound is invisible.
func TestLiveBoundedMailboxThroughBuilder(t *testing.T) {
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMailboxSpec("drop-oldest:cap=64"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !guanyu.IsFinite(res.Final) {
		t.Fatal("non-finite final parameters")
	}
	if res.FinalAccuracy < 0.8 {
		t.Fatalf("bounded live run failed to converge: accuracy %.3f", res.FinalAccuracy)
	}
}

// TestLiveTCPBoundedMailboxThroughBuilder is the same check over real
// loopback sockets: SetMailbox on every node plus couriers on the honest
// endpoints, through the public option.
func TestLiveTCPBoundedMailboxThroughBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 12 TCP nodes")
	}
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithTCPTransport(),
		guanyu.WithMailboxSpec("backpressure:cap=64"),
		guanyu.WithSteps(8),
		guanyu.WithTimeout(2*time.Minute),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerParams) == 0 {
		t.Fatal("no honest server results")
	}
	if !guanyu.IsFinite(res.Final) {
		t.Fatal("non-finite final parameters")
	}
}
