package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/gar"
	"repro/internal/tensor"
)

// fastBlob returns a quick config on the blob workload.
func fastGuanYu(w Workload, steps int, seed uint64) Config {
	cfg := GuanYu(w, 1, 1, steps, 16, seed)
	cfg.NumWorkers = 6
	cfg.FWorkers = 1
	cfg.LR = func(int) float64 { return 0.2 }
	cfg.EvalEvery = 10
	return cfg
}

func TestValidateConfig(t *testing.T) {
	w := BlobWorkload(200, 1)
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"missing model", func(c *Config) { c.Model = nil }, "required"},
		{"zero steps", func(c *Config) { c.Steps = 0 }, "positive"},
		{"bad servers", func(c *Config) { c.NumServers = 5 }, "3f+3"},
		{"bad workers", func(c *Config) { c.NumWorkers = 5 }, "3f+3"},
		{"quorum too big", func(c *Config) { c.QuorumServers = 6 }, "n−f"},
		{"quorum too small", func(c *Config) { c.QuorumWorkers = 4 }, "2f+3"},
		{"unknown mode", func(c *Config) { c.Mode = 0 }, "mode"},
		{"all workers byz", func(c *Config) {
			c.WorkerAttacks = map[int]attack.Attack{}
			for i := 0; i < c.NumWorkers; i++ {
				c.WorkerAttacks[i] = attack.Zero{}
			}
		}, "Byzantine"},
		// An attack the simulator would never run, yet would count among
		// the colluders it hands the omniscient attacks.
		{"attack out of range", func(c *Config) {
			c.WorkerAttacks = map[int]attack.Attack{99: attack.Zero{}}
		}, "attack index 99 outside population"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fastGuanYu(w, 1, 1)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("want error containing %q, got %v", tt.wantErr, err)
			}
		})
	}

	// Vanilla mode rejects replicated servers.
	v := VanillaTF(w, 10, 8, 1)
	v.NumServers = 3
	if err := v.Validate(); err == nil {
		t.Fatal("vanilla with 3 servers accepted")
	}
	v = VanillaTF(w, 10, 8, 1)
	v.WorkerAttacks = map[int]attack.Attack{99: attack.Zero{}}
	if err := v.Validate(); err == nil || !strings.Contains(err.Error(), "vanilla worker attack index 99 outside [0, 18)") {
		t.Fatalf("vanilla attack out of range: %v", err)
	}
}

func TestRunGuanYuConvergesOnBlobs(t *testing.T) {
	w := BlobWorkload(600, 10)
	cfg := fastGuanYu(w, 100, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("final accuracy %.3f < 0.9", res.FinalAccuracy)
	}
	if res.Updates != 100 {
		t.Fatalf("updates = %d", res.Updates)
	}
	if res.VirtualTime <= 0 {
		t.Fatalf("virtual time %v", res.VirtualTime)
	}
	if len(res.Curve.Points) == 0 {
		t.Fatal("no curve points recorded")
	}
	// Virtual time must be monotone along the curve.
	for i := 1; i < len(res.Curve.Points); i++ {
		if res.Curve.Points[i].Time < res.Curve.Points[i-1].Time {
			t.Fatal("virtual clock went backwards")
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	w := BlobWorkload(300, 20)
	cfg := fastGuanYu(w, 30, 3)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the workload so model init matches.
	w2 := BlobWorkload(300, 20)
	cfg2 := fastGuanYu(w2, 30, 3)
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAccuracy != r2.FinalAccuracy || r1.VirtualTime != r2.VirtualTime {
		t.Fatalf("non-deterministic: acc %v vs %v, time %v vs %v",
			r1.FinalAccuracy, r2.FinalAccuracy, r1.VirtualTime, r2.VirtualTime)
	}
	for i := range r1.Final {
		if r1.Final[i] != r2.Final[i] {
			t.Fatal("final parameters differ across identical runs")
		}
	}
}

func TestRunSurvivesByzantineMinority(t *testing.T) {
	w := BlobWorkload(600, 30)
	cfg := fastGuanYu(w, 100, 4)
	cfg = WithByzantineWorkers(cfg, 1, func(i int) attack.Attack {
		return attack.ScaledNorm{Factor: 1e8}
	})
	cfg = WithByzantineServers(cfg, 1, func(i int) attack.Attack {
		return attack.TwoFaced{Inner: attack.NewRandomGaussian(100, uint64(50+i))}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.IsFinite(res.Final) {
		t.Fatal("Byzantine values leaked into the final model")
	}
	if res.FinalAccuracy < 0.85 {
		t.Fatalf("GuanYu collapsed under attack: accuracy %.3f", res.FinalAccuracy)
	}
}

func TestRunVanillaDivergesUnderAttack(t *testing.T) {
	w := BlobWorkload(600, 40)
	cfg := VanillaTF(w, 60, 16, 5)
	cfg.NumWorkers = 6
	cfg.LR = func(int) float64 { return 0.2 }
	cfg = WithByzantineWorkers(cfg, 1, func(int) attack.Attack {
		return attack.ScaledNorm{Factor: 1e9}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.IsFinite(res.Final) && res.FinalAccuracy > 0.6 {
		t.Fatalf("vanilla survived an attack it must not survive: %.3f", res.FinalAccuracy)
	}
}

func TestRunVanillaConvergesClean(t *testing.T) {
	w := BlobWorkload(600, 50)
	cfg := VanillaTF(w, 100, 16, 6)
	cfg.NumWorkers = 6
	cfg.LR = func(int) float64 { return 0.2 }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.9 {
		t.Fatalf("vanilla failed to converge: %.3f", res.FinalAccuracy)
	}
	if res.Curve.Name != "vanilla TF" {
		t.Fatalf("curve name %q", res.Curve.Name)
	}
}

func TestVanillaGuanYuIsSlowerThanVanillaTF(t *testing.T) {
	// Same topology and semantics; only the runtime overhead differs — so
	// the per-update curves coincide and the per-time curve is slower.
	w1 := BlobWorkload(600, 60)
	tf, err := Run(withFastLR(VanillaTF(w1, 60, 16, 7)))
	if err != nil {
		t.Fatal(err)
	}
	w2 := BlobWorkload(600, 60)
	gy, err := Run(withFastLR(VanillaGuanYu(w2, 60, 16, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if gy.VirtualTime <= tf.VirtualTime {
		t.Fatalf("vanilla GuanYu (%.3fs) should be slower than vanilla TF (%.3fs)",
			gy.VirtualTime, tf.VirtualTime)
	}
	if math.Abs(gy.FinalAccuracy-tf.FinalAccuracy) > 0.15 {
		t.Fatalf("same-semantics runs diverged in accuracy: %.3f vs %.3f",
			gy.FinalAccuracy, tf.FinalAccuracy)
	}
}

func withFastLR(cfg Config) Config {
	cfg.NumWorkers = 6
	cfg.LR = func(int) float64 { return 0.2 }
	return cfg
}

func TestAlignmentProbeRecords(t *testing.T) {
	w := BlobWorkload(400, 70)
	cfg := fastGuanYu(w, 60, 8)
	cfg.AlignEvery = 20
	cfg.AlignAfter = 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) == 0 {
		t.Fatal("alignment probe recorded nothing")
	}
	for _, r := range res.Alignments {
		if r.CosPhi < 0 || r.CosPhi > 1+1e-12 {
			t.Fatalf("cos φ out of range: %v", r.CosPhi)
		}
		if r.Step < 20 {
			t.Fatalf("record before AlignAfter: step %d", r.Step)
		}
	}
}

func TestContractionAblationIncreasesDrift(t *testing.T) {
	// Removing phase 3 must increase how far honest servers drift apart —
	// the design choice the contraction proof is about.
	run := func(disable bool, seed uint64) float64 {
		w := BlobWorkload(400, 80)
		cfg := fastGuanYu(w, 60, seed)
		cfg.DisableServerExchange = disable
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := res.Curve.Points[len(res.Curve.Points)-1]
		return last.Drift
	}
	withExchange := run(false, 9)
	without := run(true, 9)
	if without <= withExchange {
		t.Fatalf("contraction round had no effect: drift %.4f (on) vs %.4f (off)",
			withExchange, without)
	}
}

func TestDeclaredQuorumAffectsSelection(t *testing.T) {
	// Larger declared f̄ means a larger gradient quorum: servers wait for
	// more workers each step, so virtual time per update must grow.
	small := fastGuanYu(BlobWorkload(400, 90), 30, 11) // f̄=1 → q̄=5
	large := fastGuanYu(BlobWorkload(400, 90), 30, 11)
	large.QuorumWorkers = 5 // keep same for determinism reference
	resSmall, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	wide := fastGuanYu(BlobWorkload(400, 90), 30, 11)
	wide.NumWorkers = 9
	wide.FWorkers = 2 // q̄ = 7 of 9
	resWide, err := Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if resWide.VirtualTime <= resSmall.VirtualTime {
		t.Logf("note: wide quorum not slower (%.3f vs %.3f); acceptable on tiny nets",
			resWide.VirtualTime, resSmall.VirtualTime)
	}
	if resWide.FinalAccuracy < 0.7 {
		t.Fatalf("wide-quorum run failed outright: %.3f", resWide.FinalAccuracy)
	}
}

func TestRunWithAlternateRules(t *testing.T) {
	for _, rule := range []gar.Rule{gar.Median{}, gar.TrimmedMean{F: 1}} {
		w := BlobWorkload(400, 100)
		cfg := fastGuanYu(w, 60, 12)
		cfg.Rule = rule
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		if res.FinalAccuracy < 0.8 {
			t.Fatalf("%s failed to converge: %.3f", rule.Name(), res.FinalAccuracy)
		}
	}
}

func TestSilentByzantineServerInSim(t *testing.T) {
	w := BlobWorkload(400, 110)
	cfg := fastGuanYu(w, 60, 13)
	cfg = WithByzantineServers(cfg, 1, func(int) attack.Attack { return attack.Silent{} })
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.85 {
		t.Fatalf("silent server broke the run: %.3f", res.FinalAccuracy)
	}
}

func TestLivenessViolationIsAnError(t *testing.T) {
	// 2 actually-silent servers but q = n−f = 5 means only 4 respond:
	// the run must fail with a quorum error, not hang or mislearn.
	w := BlobWorkload(200, 120)
	cfg := fastGuanYu(w, 5, 14)
	cfg.QuorumServers = 5
	cfg.ServerAttacks = map[int]attack.Attack{
		0: attack.Silent{},
		1: attack.Silent{},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected liveness error")
	}
}

func TestCostModelPricing(t *testing.T) {
	cm := DefaultCostModel(1)
	if cm.aggTime(gar.Mean{}, 10) >= cm.aggTime(gar.Median{}, 10) {
		t.Fatal("median must cost more than mean")
	}
	if cm.aggTime(gar.Median{}, 10) >= cm.aggTime(gar.MultiKrum{F: 1}, 10) {
		t.Fatal("multi-krum must cost more than median")
	}
	cm.OptimizedRuntime = true
	if cm.serOverhead() != 0 {
		t.Fatal("optimized runtime must zero serialization overhead")
	}
	cm.OptimizedRuntime = false
	if cm.serOverhead() <= 0 {
		t.Fatal("non-optimized runtime must pay serialization overhead")
	}
}

func TestModeString(t *testing.T) {
	if ModeVanilla.String() != "vanilla" || ModeGuanYu.String() != "guanyu" {
		t.Fatal("mode strings wrong")
	}
	if Mode(0).String() != "unknown" {
		t.Fatal("zero mode should be unknown")
	}
}
