package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/transport"
)

// TestRunOutputsPinned holds the simulator's outputs to hashes recorded
// when they were last meant to change: Final's bits, every curve point,
// every alignment record and the virtual time of seven deployments that
// between them reach every branch of the step (Byzantine and silent
// senders, the vanilla baseline's unfiltered mean, churn, faults, both
// lossy codecs, the alignment probe and the exchange-free ablation). A
// refactor of the engine that keeps these hashes changed no number any
// experiment reports. The file is amd64-only because the compiler may fuse
// multiply-adds on other architectures, which moves the last bits.
func TestRunOutputsPinned(t *testing.T) {
	mustCompress := func(spec string) compress.Config {
		c, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"guanyu alie workers equivocating server", func() Config {
			cfg := GuanYu(BlobWorkload(300, 1), PaperByzWorkers, PaperByzServers, 20, 8, 1)
			alie, err := attack.FromSpec("alie", 1)
			if err != nil {
				t.Fatal(err)
			}
			equivocate, err := attack.FromSpec("equivocate", 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg = WithByzantineWorkers(cfg, PaperByzWorkers, alie)
			return WithByzantineServers(cfg, PaperByzServers, equivocate)
		}, "f26cff03820d0a333f9f9705"},
		{"vanilla tf", func() Config {
			return VanillaTF(BlobWorkload(300, 2), 20, 8, 2)
		}, "a36a6ef8d07b3ac2aadce032"},
		{"vanilla guanyu nan workers", func() Config {
			cfg := VanillaGuanYu(BlobWorkload(300, 3), 20, 8, 3)
			return WithByzantineWorkers(cfg, 2, func(int) attack.Attack { return attack.NaNInjection{} })
		}, "3c6603afb8f238e160bda819"},
		{"rolling churn", func() Config {
			cfg := fastGuanYu(BlobWorkload(300, 4), 30, 4)
			plan, err := ChurnPreset("rolling", cfg.NumServers, cfg.FServers, cfg.Steps, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Churn = plan
			return cfg
		}, "68d3706ff8861397a1afa89e"},
		{"delay and drop faults top-k", func() Config {
			cfg := fastGuanYu(BlobWorkload(300, 5), 20, 5)
			// q = 3 of 6 and q̄ = 5 of 9: slack for the drops.
			cfg.FServers, cfg.NumWorkers = 0, 9
			cfg.Faults = transport.NewFaultInjector(transport.FaultConfig{
				Seed: 5, Drop: 0.05, DelayRate: 0.2, DelaySpike: 0.002})
			cfg.Compression = mustCompress("topk:k=0.1")
			return cfg
		}, "771e25625156097f06108fe7"},
		{"float32 alignment probe", func() Config {
			cfg := fastGuanYu(BlobWorkload(300, 6), 20, 6)
			cfg.Compression = mustCompress("float32")
			cfg.AlignEvery, cfg.AlignAfter = 5, 5
			return cfg
		}, "0fca76dc7f72376ca964bee7"},
		{"no exchange drifting server", func() Config {
			cfg := fastGuanYu(BlobWorkload(300, 7), 20, 7)
			cfg.DisableServerExchange = true
			return WithByzantineServers(cfg, 1, func(int) attack.Attack {
				return &attack.SlowDrift{Delta: 0.05, Seed: 7}
			})
		}, "6f995bf2965ab29d38b0b1aa"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if got := resultHash(res); got != c.want {
				t.Fatalf("outputs hash to %s, pinned %s", got, c.want)
			}
		})
	}
}

// resultHash digests every number a Result reports, bit for bit.
func resultHash(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	f := func(x float64) { put(math.Float64bits(x)) }
	for _, x := range r.Final {
		f(x)
	}
	put(uint64(len(r.Curve.Points)))
	for _, p := range r.Curve.Points {
		put(uint64(p.Step))
		f(p.Time)
		f(p.Accuracy)
		f(p.Loss)
		f(p.Drift)
	}
	put(uint64(len(r.Alignments)))
	for _, a := range r.Alignments {
		put(uint64(a.Step))
		f(a.CosPhi)
		f(a.MaxDiff1)
		f(a.MaxDiff2)
	}
	f(r.FinalAccuracy)
	f(r.VirtualTime)
	put(uint64(r.Updates))
	return hex.EncodeToString(h.Sum(nil)[:12])
}
