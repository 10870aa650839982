package cluster

import (
	"testing"
	"time"

	"repro/internal/gar"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestCancelledServerStillReportsLiveCounters is the regression for the
// snapshot-at-exit stats bug: counters used to exist only inside the
// collector, so nothing could be read mid-run and a cancelled node's
// totals were whatever a deferred snapshot caught. The registry handle is
// the counters' only storage: the drops a rogue feeder provokes are visible
// WHILE the server is still blocked on its quorum, and when the network is
// torn down under it the same exact totals are still there — error path
// included. A cancelled node must also never read as cleanly done, so a
// /healthz scrape reports it stalled instead of finished.
func TestCancelledServerStillReportsLiveCounters(t *testing.T) {
	const futureFrames = 7
	network := transport.NewChanNetwork(nil)
	defer network.Close()
	ep, err := network.Register("ps0")
	if err != nil {
		t.Fatal(err)
	}
	feeder, err := network.Register("wrk0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	handle := reg.Node("ps0")
	network.SetNodeMetrics("ps0", handle)

	done := make(chan error, 1)
	go func() {
		_, err := RunServer(ep, ServerConfig{
			ID: "ps0", Workers: []string{"wrk0"},
			Init:     tensor.Vector{0, 0},
			GradRule: gar.Mean{}, ParamRule: gar.Median{},
			QuorumGradients: 1, QuorumParams: 1,
			Steps: 3, LR: func(int) float64 { return 0.1 },
			Timeout: time.Minute,
			Metrics: handle,
		})
		done <- err
	}()

	// The feeder sends only beyond-horizon junk, so the server stays
	// blocked on its step-0 gradient quorum while the drops accumulate.
	for i := 0; i < futureFrames; i++ {
		if err := feeder.Send("ps0", transport.Message{
			Kind: transport.KindGradient, Step: 5000, Vec: tensor.Vector{1, 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for handle.DroppedFuture.Load() < futureFrames && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The mid-run read the old defer-only plumbing could not provide.
	if got := handle.DroppedFuture.Load(); got != futureFrames {
		t.Fatalf("live DroppedFuture = %d mid-run, want %d", got, futureFrames)
	}

	// Tear the network down under the blocked server.
	network.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server must fail when its endpoint closes mid-quorum")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not return after network close")
	}

	if got := handle.DroppedFuture.Load(); got != futureFrames {
		t.Fatalf("DroppedFuture = %d after cancellation, want %d", got, futureFrames)
	}
	if got := handle.Steps.Load(); got != 0 {
		t.Fatalf("Steps = %d for a run cancelled at step 0, want 0", got)
	}
	if handle.Done() {
		t.Fatal("a cancelled run must not read as cleanly done")
	}
	if h := reg.CheckHealth(time.Nanosecond); h.Healthy {
		t.Fatal("a cancelled, never-finished node must report unhealthy under a tiny stall window")
	}
}
