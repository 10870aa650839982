package guanyu_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/guanyu"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestWithMetricsAddrValidation: the ops surface scrapes a wall-clock run,
// so it is Live-only, and an empty address is rejected at build time.
func TestWithMetricsAddrValidation(t *testing.T) {
	if _, err := guanyu.New(quickOpts(
		guanyu.WithMetricsAddr("127.0.0.1:0"))...); err == nil ||
		!strings.Contains(err.Error(), "Live") {
		t.Fatalf("WithMetricsAddr under the Sim default: %v, want a Live-only error", err)
	}
	if _, err := guanyu.New(quickOpts(guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMetricsAddr(""))...); err == nil {
		t.Fatal("empty metrics address accepted")
	}
}

// TestLiveResultSurfacesDroppedClosed is the regression for the
// dropped-counter plumbing bug: cluster.LiveResult counted overflow and
// after-close drops, but guanyu.Result silently zeroed them. One server's
// outbound frames are delayed past everyone's quorums, so its tail traffic
// lands on mailboxes that have already shut down — and that total must
// survive the trip through the façade.
func TestLiveResultSurfacesDroppedClosed(t *testing.T) {
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithMailbox(8, guanyu.DropNewest),
		guanyu.WithDelay(func(from, to string) time.Duration {
			if from == "ps4" { // honest but slow: every quorum completes without it
				return 200 * time.Millisecond
			}
			return 0
		}),
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
	if res.DroppedClosed == 0 {
		t.Fatal("Result.DroppedClosed = 0: the slow server's tail frames must surface through the façade")
	}
}

// scrapeFamilies fetches /metrics and returns the summed value per counter
// family, plus the node_info address labels.
func scrapeFamilies(t *testing.T, addr string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	sums := make(map[string]float64)
	addrs := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		brace := strings.IndexByte(line, '{')
		space := strings.LastIndexByte(line, ' ')
		if brace < 0 || space < brace {
			t.Fatalf("unparseable sample line %q", line)
		}
		family := line[:brace]
		var v float64
		if _, err := fmt.Sscanf(line[space+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		sums[family] += v
		if family == "guanyu_node_info" {
			labels := line[brace+1 : strings.IndexByte(line, '}')]
			var node, naddr string
			for _, kv := range strings.Split(labels, ",") {
				k, val, _ := strings.Cut(kv, "=")
				val = strings.Trim(val, `"`)
				switch k {
				case "node":
					node = val
				case "addr":
					naddr = val
				}
			}
			if node != "" && naddr != "" {
				addrs[node] = naddr
			}
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return sums, addrs
}

// TestLiveTCPMetricsAcceptance is the issue's acceptance scenario: a
// 12-node TCP deployment with an equivocating server and drop-oldest
// mailboxes, scraped over HTTP WHILE it runs. A rogue raw connection
// hellos as one identity and then forges another (guanyu_forged_dropped_total)
// and sprays junk under its own name at a capped mailbox
// (guanyu_mailbox_dropped_total; the survivors, guanyu_dropped_roster_total). The scrape loop asserts every counter
// family is monotonic across reads, both families go nonzero live, and the
// same totals come back through guanyu.Result after the run.
func TestLiveTCPMetricsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 12 TCP nodes plus an HTTP listener")
	}
	metricsAddr := make(chan string, 1)
	d, err := guanyu.New(quickOpts(
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithTCPTransport(),
		guanyu.WithSteps(60),
		guanyu.WithServerAttack(5, guanyu.Equivocate{Std: 0.5, Seed: 13}),
		guanyu.WithMailboxSpec("drop-oldest:cap=8"),
		guanyu.WithTimeout(2*time.Minute),
		guanyu.WithMetricsAddr("127.0.0.1:0", func(addr string) { metricsAddr <- addr }),
	)...)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *guanyu.Result
		err error
	}
	runDone := make(chan outcome, 1)
	go func() {
		res, err := d.Run(context.Background())
		runDone <- outcome{res, err}
	}()

	var addr string
	select {
	case addr = <-metricsAddr:
	case <-time.After(10 * time.Second):
		t.Fatal("metrics listener never came up")
	case o := <-runDone:
		t.Fatalf("run finished before the listener reported: %+v", o)
	}

	// Discover a worker's TCP address the way an operator would: from the
	// guanyu_node_info family of a live scrape. The target is a worker —
	// its mailbox sits idle during the local gradient computation, which
	// is the window the spray overflows.
	var targetAddr string
	deadline := time.Now().Add(10 * time.Second)
	for targetAddr == "" && time.Now().Before(deadline) {
		_, addrs := scrapeFamilies(t, addr)
		targetAddr = addrs["wrk0"]
		if targetAddr == "" {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if targetAddr == "" {
		t.Fatal("guanyu_node_info never published wrk0's address")
	}

	raw, err := net.Dial("tcp", targetAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	hello, err := transport.AppendHello(nil, "rogue", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	forged, err := transport.AppendMessage(nil, &transport.Message{
		From: "ps0", Kind: transport.KindGradient, Step: 0, Vec: tensor.Vector{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	junk, err := transport.AppendMessage(nil, &transport.Message{
		From: "rogue", Kind: transport.KindGradient, Step: 0, Vec: tensor.Vector{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One spray burst: forged identities (dropped at the read loop) plus a
	// burst of own-name junk deep enough to overflow the drop-oldest cap
	// whenever the worker is busy computing instead of draining.
	burst := append([]byte{}, forged...)
	for i := 0; i < 512; i++ {
		burst = append(burst, junk...)
	}

	stopSpray := make(chan struct{})
	sprayDone := make(chan struct{})
	go func() {
		defer close(sprayDone)
		for {
			select {
			case <-stopSpray:
				return
			default:
			}
			if _, err := raw.Write(burst); err != nil {
				return // run over, sockets down
			}
		}
	}()

	// The concurrent scrape loop: every family monotonic, both adversarial
	// families eventually nonzero while the cluster is still training.
	prev := make(map[string]float64)
	var sawForged, sawOverflow bool
	var out outcome
scrape:
	for {
		select {
		case out = <-runDone:
			break scrape
		default:
		}
		sums, _ := scrapeFamilies(t, addr)
		for fam, v := range sums {
			if strings.HasSuffix(fam, "_total") && v < prev[fam] {
				t.Fatalf("family %s regressed across scrapes: %g -> %g", fam, prev[fam], v)
			}
			prev[fam] = v
		}
		if sums["guanyu_forged_dropped_total"] > 0 {
			sawForged = true
		}
		if sums["guanyu_mailbox_dropped_total"] > 0 {
			sawOverflow = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopSpray)
	<-sprayDone

	if out.err != nil {
		t.Fatalf("run failed under the rogue: %v", out.err)
	}
	if !guanyu.IsFinite(out.res.Final) {
		t.Fatal("non-finite final parameters")
	}
	if !sawForged {
		t.Error("guanyu_forged_dropped_total never went nonzero in a live scrape")
	}
	if !sawOverflow {
		t.Error("guanyu_mailbox_dropped_total never went nonzero in a live scrape")
	}
	// The same totals must surface through the façade result — at least
	// what the last scrape saw, since counters only grow.
	if out.res.ForgedDropped == 0 || float64(out.res.ForgedDropped) < prev["guanyu_forged_dropped_total"] {
		t.Errorf("Result.ForgedDropped = %d, scraped %g", out.res.ForgedDropped, prev["guanyu_forged_dropped_total"])
	}
	if out.res.DroppedOverflow == 0 || float64(out.res.DroppedOverflow) < prev["guanyu_mailbox_dropped_total"] {
		t.Errorf("Result.DroppedOverflow = %d, scraped %g", out.res.DroppedOverflow, prev["guanyu_mailbox_dropped_total"])
	}
	// What the mailbox let through of the rogue's own-name junk died at
	// wrk0's sender table: nobody wrk0's config names, and not a kind a
	// worker collects.
	if out.res.DroppedRoster == 0 || float64(out.res.DroppedRoster) < prev["guanyu_dropped_roster_total"] {
		t.Errorf("Result.DroppedRoster = %d, scraped %g", out.res.DroppedRoster, prev["guanyu_dropped_roster_total"])
	}
}

// resultFamilies pairs every /metrics drop family with the Result field
// that must carry its deployment-wide total.
func resultFamilies(r *guanyu.Result) map[string]uint64 {
	return map[string]uint64{
		"guanyu_dropped_future_total":       r.DroppedFuture,
		"guanyu_dropped_malformed_total":    r.DroppedMalformed,
		"guanyu_forged_dropped_total":       r.ForgedDropped,
		"guanyu_dropped_unnegotiated_total": r.DroppedUnnegotiated,
		"guanyu_dropped_roster_total":       r.DroppedRoster,
		"guanyu_mailbox_dropped_total":      r.DroppedOverflow,
		"guanyu_courier_dropped_total":      r.CourierDropped,
		"guanyu_closed_dropped_total":       r.DroppedClosed,
	}
}

// TestLiveCompressedResultCoversScrape carries the TCP acceptance test's
// "Result ≥ last scrape" pattern to the in-process runtime, where the
// compression wrapper — not a TCP read loop — does the dropping, and the
// façade used to leave those drops on the floor. One honest server's
// delta-compressed frames are delivered out of order (every other one
// held back), so receivers see diffs against a reference they do not
// hold and drop them as malformed until the next keyframe. Every drop
// family must come back through Result at least as large as the last
// scrape saw it, and the malformed total must be there at all.
func TestLiveCompressedResultCoversScrape(t *testing.T) {
	var slowSends atomic.Uint64
	metricsAddr := make(chan string, 1)
	// All-honest, so every malformed drop below is a reordered delta frame.
	d, err := guanyu.New(
		guanyu.WithWorkload(guanyu.BlobWorkload(600, 7)),
		guanyu.WithServers(6, 1),
		guanyu.WithWorkers(6, 1),
		guanyu.WithBatch(8),
		guanyu.WithSeed(11),
		guanyu.WithRuntime(guanyu.Live),
		guanyu.WithCompression("delta"),
		guanyu.WithSteps(120),
		guanyu.WithDelay(func(from, to string) time.Duration {
			// ps4 is honest; every quorum completes without it. It sends an
			// odd number of frames per step, so per link the held-back and
			// the prompt frames alternate and the prompt one overtakes.
			if from == "ps4" && slowSends.Add(1)%2 == 1 {
				return 20 * time.Millisecond
			}
			return 0
		}),
		guanyu.WithMetricsAddr("127.0.0.1:0", func(addr string) { metricsAddr <- addr }),
	)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *guanyu.Result
		err error
	}
	runDone := make(chan outcome, 1)
	go func() {
		res, err := d.Run(context.Background())
		runDone <- outcome{res, err}
	}()
	var addr string
	select {
	case addr = <-metricsAddr:
	case <-time.After(10 * time.Second):
		t.Fatal("metrics listener never came up")
	}

	prev := make(map[string]float64)
	var out outcome
scrape:
	for {
		select {
		case out = <-runDone:
			break scrape
		default:
		}
		sums, _ := scrapeFamilies(t, addr)
		for fam, v := range sums {
			if strings.HasSuffix(fam, "_total") && v < prev[fam] {
				t.Fatalf("family %s regressed across scrapes: %g -> %g", fam, prev[fam], v)
			}
			prev[fam] = v
		}
		time.Sleep(time.Millisecond)
	}
	if out.err != nil {
		t.Fatalf("run failed: %v", out.err)
	}
	if !guanyu.IsFinite(out.res.Final) {
		t.Fatal("non-finite final parameters")
	}
	if out.res.DroppedMalformed == 0 {
		t.Error("Result.DroppedMalformed = 0: the compression wrapper's drops must surface through the façade")
	}
	for fam, got := range resultFamilies(out.res) {
		if float64(got) < prev[fam] {
			t.Errorf("Result carries %d for %s, the last scrape saw %g", got, fam, prev[fam])
		}
	}
}
