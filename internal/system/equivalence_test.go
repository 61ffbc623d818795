package system

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/vqa"
)

// The two machines differ only in architecture, not physics: with the
// same seed they must produce identical measurement statistics and thus
// identical optimizer trajectories. This pins down that every speedup
// the harness reports is architectural, never a workload divergence.
func TestSystemsComputeIdenticalTrajectories(t *testing.T) {
	for _, kind := range vqa.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			w, err := vqa.New(kind, 8)
			if err != nil {
				t.Fatal(err)
			}
			o := opt.DefaultOptions()
			o.Iterations = 3
			qcfg := DefaultConfig(host.Rocket())
			qcfg.Shots = 200
			bcfg := baseline.DefaultConfig()
			bcfg.Shots = 200
			qres := runQtenon(t, qcfg, w, backend.SPSA, o)
			bres := runBase(t, bcfg, w, backend.SPSA, o)
			if len(qres.History) != len(bres.History) {
				t.Fatalf("history lengths differ: %d vs %d", len(qres.History), len(bres.History))
			}
			for i := range qres.History {
				if qres.History[i] != bres.History[i] {
					t.Errorf("iteration %d: qtenon %v vs baseline %v", i, qres.History[i], bres.History[i])
				}
			}
		})
	}
}

// Quantum time must be bit-identical between configurations of the SAME
// system too (sync mode, batching, SLT do not touch the chip).
func TestQuantumTimeInvariantAcrossConfigs(t *testing.T) {
	w, err := vqa.New(vqa.QNN, 8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Iterations = 2
	mk := func(mut func(*Config)) int64 {
		cfg := DefaultConfig(host.Rocket())
		cfg.Shots = 100
		mut(&cfg)
		return int64(runQtenon(t, cfg, w, backend.SPSA, o).Breakdown.Quantum)
	}
	ref := mk(func(*Config) {})
	variants := map[string]func(*Config){
		"fence":       func(c *Config) { c.Sync = 0 },
		"no-batching": func(c *Config) { c.Batching = false },
		"no-slt":      func(c *Config) { c.UseSLT = false },
		"1-pgu":       func(c *Config) { c.PGUs = 1 },
		"boom":        func(c *Config) { c.Core = host.BoomL() },
	}
	for name, mut := range variants {
		if got := mk(mut); got != ref {
			t.Errorf("%s: quantum time %d != reference %d", name, got, ref)
		}
	}
}

// Optimizers actually optimize through the full architecture: final cost
// beats initial cost for each workload on Qtenon.
func TestOptimizationProgressEndToEnd(t *testing.T) {
	for _, kind := range vqa.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			w, err := vqa.New(kind, 8)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(host.BoomL())
			cfg.Shots = 400
			s, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			o := opt.DefaultOptions()
			o.Iterations = 15
			res, err := opt.SPSA(s.Evaluate, w.InitialParams, o)
			if err != nil {
				t.Fatal(err)
			}
			first, err := s.Evaluate(w.InitialParams)
			if err != nil {
				t.Fatal(err)
			}
			best := res.History[0]
			for _, c := range res.History {
				if c < best {
					best = c
				}
			}
			if best >= first {
				t.Errorf("no optimization progress: initial %v, best %v", first, best)
			}
		})
	}
}
