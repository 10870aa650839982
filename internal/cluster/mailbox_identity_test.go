package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/gar"
	"repro/internal/transport"
)

// TestMailboxPoliciesBitIdenticalWithoutOverflow pins the acceptance
// property the zero-value escape hatch rests on: when no overflow occurs,
// the mailbox bound and its policy are invisible — whole-vector, sharded
// and compressed live runs all produce byte-for-byte the same final model
// under every policy as with the unbounded default — and so is the mesh:
// every cell is run over in-process channels and over loopback sockets, the
// property that lets one launcher serve both.
//
// The deployment is made schedule-independent on purpose: full quorums (q
// = n, so every run folds the same message set) and Median everywhere (a
// per-coordinate sort, indifferent to arrival order). What remains to vary
// across runs is exactly the mailbox configuration and the transport — so
// any difference in the result is one of them leaking into delivery, which
// is the bug this test exists to catch.
func TestMailboxPoliciesBitIdenticalWithoutOverflow(t *testing.T) {
	model, train, _ := testProblem(900)
	base := LiveConfig{
		Model:      model,
		Train:      train,
		NumServers: 3, FServers: 0,
		NumWorkers: 3, FWorkers: 0,
		QuorumServers: 3, QuorumWorkers: 3,
		Rule: gar.Median{}, ParamRule: gar.Median{},
		Steps: 20, Batch: 16,
		LR:      func(int) float64 { return 0.2 },
		Timeout: 60 * time.Second,
		Seed:    9,
	}
	variants := []struct {
		name string
		mut  func(*LiveConfig)
	}{
		{"whole", func(*LiveConfig) {}},
		{"sharded", func(c *LiveConfig) { c.ShardSize = 13 }},
		{"compressed", func(c *LiveConfig) { c.Compression = compress.Config{Scheme: compress.Float32} }},
	}
	policies := []struct {
		name string
		cfg  transport.MailboxConfig
	}{
		{"unbounded", transport.MailboxConfig{}},
		{"backpressure", transport.MailboxConfig{Cap: 64, Policy: transport.Backpressure}},
		{"drop-newest", transport.MailboxConfig{Cap: 64, Policy: transport.DropNewest}},
		{"drop-oldest", transport.MailboxConfig{Cap: 64, Policy: transport.DropOldest}},
	}
	for _, v := range variants {
		var reference *LiveResult
		for _, p := range policies {
			for _, tcp := range []bool{false, true} {
				cell := fmt.Sprintf("%s/%s/tcp=%v", v.name, p.name, tcp)
				cfg := base
				v.mut(&cfg)
				cfg.Mailbox = p.cfg
				cfg.TCP = tcp
				res, err := RunLive(cfg)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if dropped := res.Totals.DroppedOverflow + res.Totals.CourierDropped; dropped != 0 {
					t.Fatalf("%s: %d overflow drops in a schedule that must not overflow", cell, dropped)
				}
				if reference == nil {
					reference = res
					continue
				}
				if len(res.Final) != len(reference.Final) {
					t.Fatalf("%s: final dimension %d vs %d", cell, len(res.Final), len(reference.Final))
				}
				for i := range res.Final {
					if res.Final[i] != reference.Final[i] {
						t.Fatalf("%s: final[%d] = %v, the unbounded channel run had %v — the policy or the transport leaked into delivery",
							cell, i, res.Final[i], reference.Final[i])
					}
				}
			}
		}
	}
}
