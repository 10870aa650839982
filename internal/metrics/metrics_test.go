package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestRegistryNodeIsGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Node("ps0")
	b := r.Node("ps0")
	if a != b {
		t.Fatal("Node must return the same handle for the same id")
	}
	r.Node("wrk0")
	ids := r.IDs()
	if len(ids) != 2 || ids[0] != "ps0" || ids[1] != "wrk0" {
		t.Fatalf("IDs = %v, want [ps0 wrk0] in registration order", ids)
	}
}

func TestSnapshotCarriesCountersAndLiveness(t *testing.T) {
	r := NewRegistry()
	h := r.Node("ps0")
	h.DroppedOverflow.Add(3)
	h.ForgedDropped.Add(2)
	h.ObservePeak(100)
	h.ObservePeak(50) // must not regress the high-water mark
	h.SetQueueDepth(7)
	h.SetAddr("127.0.0.1:999")
	h.StepDone(4)
	h.MarkDone()

	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	s := snaps[0]
	if s.ID != "ps0" || s.Addr != "127.0.0.1:999" {
		t.Fatalf("identity fields wrong: %+v", s)
	}
	if s.DroppedOverflow != 3 || s.ForgedDropped != 2 || s.Steps != 1 {
		t.Fatalf("counter fields wrong: %+v", s)
	}
	if s.PeakBytes != 100 || s.QueueDepth != 7 || s.LastStep != 4 || !s.Done {
		t.Fatalf("gauge fields wrong: %+v", s)
	}
	if s.SinceProgress > time.Minute {
		t.Fatalf("SinceProgress %v not refreshed by StepDone", s.SinceProgress)
	}
}

func TestObservePeakIsConcurrentMax(t *testing.T) {
	h := NewRegistry().Node("ps0")
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			h.ObservePeak(n)
		}(i)
	}
	wg.Wait()
	if h.PeakBytes() != 64 {
		t.Fatalf("peak = %d, want 64", h.PeakBytes())
	}
}

func TestCheckHealthFlagsStalledNodes(t *testing.T) {
	r := NewRegistry()
	if !r.CheckHealth(time.Millisecond).Healthy {
		t.Fatal("empty registry must be healthy")
	}
	stuck := r.Node("ps0")
	done := r.Node("ps1")
	done.MarkDone()
	_ = stuck

	time.Sleep(5 * time.Millisecond)
	h := r.CheckHealth(time.Millisecond)
	if h.Healthy {
		t.Fatal("registry with a silent running node must be unhealthy")
	}
	if len(h.Stalled) != 1 || h.Stalled[0] != "ps0" {
		t.Fatalf("Stalled = %v, want [ps0] (done nodes never stall)", h.Stalled)
	}

	stuck.Progress()
	if h := r.CheckHealth(time.Minute); !h.Healthy {
		t.Fatalf("health must recover after progress: %+v", h)
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Node("ps0")
	h.ForgedDropped.Add(5)
	h.DroppedOverflow.Add(9)
	h.SetAddr("127.0.0.1:7000")
	h.StepDone(3)
	r.Node("wrk0").CourierDropped.Add(2)
	// A class of a length no other test uses, with a vector out.
	tensor.Put(make(tensor.Vector, 4099))
	tensor.Get(4099)
	tensor.Get(4099)
	ledger := fmt.Sprintf(`guanyu_free_list_outstanding{len="4099"} %d`, tensor.Outstanding()[4099])

	var b strings.Builder
	WritePrometheus(&b, r)
	out := b.String()

	for _, want := range []string{
		"# HELP guanyu_forged_dropped_total",
		"# TYPE guanyu_forged_dropped_total counter",
		`guanyu_forged_dropped_total{node="ps0"} 5`,
		`guanyu_mailbox_dropped_total{node="ps0"} 9`,
		`guanyu_courier_dropped_total{node="wrk0"} 2`,
		`guanyu_steps_total{node="ps0"} 1`,
		`guanyu_last_step{node="ps0"} 3`,
		`guanyu_node_info{node="ps0",addr="127.0.0.1:7000"} 1`,
		"# TYPE guanyu_free_list_outstanding gauge",
		ledger,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHealthzFlipsUnderStall drives the HTTP surface through the liveness
// transition an operator would see: 200 while the node progresses, 503
// once it goes silent past the stall window, 200 again after it resumes.
func TestHealthzFlipsUnderStall(t *testing.T) {
	r := NewRegistry()
	h := r.Node("ps0")
	h.Progress()

	srv, err := Serve("127.0.0.1:0", r, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("fresh node: got %d %q, want 200 ok", code, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get("/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "stalled: ps0") {
				t.Fatalf("503 body %q must name the stalled node", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 after the node went silent")
		}
		time.Sleep(10 * time.Millisecond)
	}

	h.StepDone(1)
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d after progress resumed, want 200", code)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `guanyu_steps_total{node="ps0"} 1`) {
		t.Fatalf("metrics during the same session: %d %q", code, body)
	}
}

// TestCloseLetsInFlightScrapeFinish: a scrape still being read when the
// server closes — the scrape that overlaps the end of a run — receives the
// whole exposition, not a body cut off mid-line. The client reads through a
// small receive buffer and the exposition is megabytes, so the handler is
// blocked mid-write when Close is called.
func TestCloseLetsInFlightScrapeFinish(t *testing.T) {
	r := NewRegistry()
	const nodes = 5000
	for i := 0; i < nodes; i++ {
		r.Node(fmt.Sprintf("node%04d", i)).StepDone(i)
	}
	srv, err := Serve("127.0.0.1:0", r, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close has begun once the listener refuses connections.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5 s after Close")
		}
		time.Sleep(time.Millisecond)
	}

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape cut off after %d bytes: %v", len(body), err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var value float64
		brace := strings.LastIndex(line, "} ")
		if brace < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := fmt.Sscanf(line[brace+2:], "%g", &value); err != nil {
			t.Fatalf("unparseable sample line %q: %v", line, err)
		}
	}
	if want := fmt.Sprintf(`guanyu_node_info{node="node%04d",addr=""} 1`, nodes-1); lines[len(lines)-1] != want {
		t.Fatalf("exposition ends with %q, want %q", lines[len(lines)-1], want)
	}
}

// TestExpositionRaceClean hammers one handle from writers while scraping
// the full exposition — the torn-read check behind `go test -race`.
func TestExpositionRaceClean(t *testing.T) {
	r := NewRegistry()
	h := r.Node("ps0")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.DroppedOverflow.Add(1)
			h.ObservePeak(i)
			h.StepDone(i)
			h.SetQueueDepth(i % 8)
			h.SetAddr(fmt.Sprintf("127.0.0.1:%d", 7000+i%10))
		}
	}()
	var prev uint64
	for i := 0; i < 200; i++ {
		var b strings.Builder
		WritePrometheus(&b, r)
		snap := r.Snapshot()[0]
		if snap.DroppedOverflow < prev {
			t.Fatalf("counter regressed across scrapes: %d < %d", snap.DroppedOverflow, prev)
		}
		prev = snap.DroppedOverflow
	}
	close(stop)
	wg.Wait()
}

// TestEveryCounterReachesEveryReader is the guard against a counter added
// to the handle and forgotten downstream: each exported atomic.Uint64
// field of NodeMetrics, bumped to its own distinct value on two nodes,
// must come back under the same name in Snapshot, summed in Totals, and as
// a per-node sample in the Prometheus exposition.
func TestEveryCounterReachesEveryReader(t *testing.T) {
	r := NewRegistry()
	nodes := []*NodeMetrics{r.Node("ps0"), r.Node("wrk0")}
	counterType := reflect.TypeOf(atomic.Uint64{})
	handle := reflect.TypeOf(NodeMetrics{})
	var fields []string
	for i := 0; i < handle.NumField(); i++ {
		if f := handle.Field(i); f.IsExported() && f.Type == counterType {
			fields = append(fields, f.Name)
		}
	}
	if len(fields) == 0 {
		t.Fatal("no exported atomic.Uint64 counter found on NodeMetrics")
	}
	// Node k's i-th counter holds (k+1)·1000 + i + 1: distinct across
	// fields and nodes, so a value can only come from its own counter.
	value := func(node, field int) uint64 { return uint64(node+1)*1000 + uint64(field) + 1 }
	for k, h := range nodes {
		for i, name := range fields {
			reflect.ValueOf(h).Elem().FieldByName(name).Addr().Interface().(*atomic.Uint64).Store(value(k, i))
		}
	}

	snaps, totals := r.Snapshot(), reflect.ValueOf(r.Totals())
	var expo strings.Builder
	WritePrometheus(&expo, r)
	for i, name := range fields {
		if !totals.FieldByName(name).IsValid() {
			t.Errorf("%s: no Snapshot field of that name", name)
			continue
		}
		var sum uint64
		for k, s := range snaps {
			want := value(k, i)
			sum += want
			if got := reflect.ValueOf(s).FieldByName(name).Uint(); got != want {
				t.Errorf("%s: Snapshot of %s = %d, want %d", name, s.ID, got, want)
			}
			if sample := fmt.Sprintf("{node=%q} %d\n", s.ID, want); !strings.Contains(expo.String(), sample) {
				t.Errorf("%s: no /metrics sample %q", name, strings.TrimSpace(sample))
			}
		}
		if got := totals.FieldByName(name).Uint(); got != sum {
			t.Errorf("%s: Totals = %d, want %d", name, got, sum)
		}
	}
}
