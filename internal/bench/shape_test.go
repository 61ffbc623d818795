package bench

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/host"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// Shape regression guards: the paper's qualitative claims must hold even
// at Quick scale. A refactor that silently flips who wins should fail
// here, not in a manual reading of the full harness output.

func TestShapeSweepSpeedupsAboveOne(t *testing.T) {
	for _, alg := range algorithms {
		rows, err := SweepRows(QuickScale, alg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("empty sweep")
		}
		for _, r := range rows {
			if r.EndToEnd <= 1 {
				t.Errorf("%s %s@%dq %s: end-to-end speedup %.2f ≤ 1",
					alg, r.Workload, r.Qubits, r.Core, r.EndToEnd)
			}
			if r.Classical <= 10 {
				t.Errorf("%s %s@%dq %s: classical speedup %.1f ≤ 10",
					alg, r.Workload, r.Qubits, r.Core, r.Classical)
			}
		}
	}
}

func TestShapeFigure13Ordering(t *testing.T) {
	// baseline > hw-only ≥ full Qtenon on total time; quantum dominance
	// flips from baseline (minor) to Qtenon (major).
	sc := QuickScale
	nq := sc.HeadlineQubits()
	base, err := runBaseline(vqa.VQE, nq, backend.SPSA, sc)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := runQtenonCfg(system.HardwareOnlyConfig(host.BoomL()), vqa.VQE, nq, backend.SPSA, sc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := runQtenonCfg(system.DefaultConfig(host.BoomL()), vqa.VQE, nq, backend.SPSA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !(base.Breakdown.Total() > hw.Breakdown.Total() && hw.Breakdown.Total() >= full.Breakdown.Total()) {
		t.Errorf("ordering broken: baseline %v, hw-only %v, full %v",
			base.Breakdown.Total(), hw.Breakdown.Total(), full.Breakdown.Total())
	}
	if bp := base.Breakdown.Percent(); bp[0] > 50 {
		t.Errorf("baseline quantum share %.1f%% not minor", bp[0])
	}
	if fp := full.Breakdown.Percent(); fp[0] < 50 {
		t.Errorf("Qtenon quantum share %.1f%% not major", fp[0])
	}
}

func TestShapeTable5Reductions(t *testing.T) {
	// Incremental compilation + SLT always reduce pulse computation, and
	// GD (single-parameter updates) reduces it more than SPSA (all
	// parameters update).
	sc := QuickScale
	nq := sc.HeadlineQubits()
	reduction := func(alg backend.Algorithm) float64 {
		base, err := runBaseline(vqa.VQE, nq, alg, sc)
		if err != nil {
			t.Fatal(err)
		}
		qt, err := runQtenon(vqa.VQE, nq, host.BoomL(), alg, sc)
		if err != nil {
			t.Fatal(err)
		}
		return 1 - float64(qt.PulsesGenerated)/float64(base.PulsesGenerated)
	}
	gd, spsa := reduction(backend.GD), reduction(backend.SPSA)
	if gd <= 0 || spsa <= 0 {
		t.Fatalf("non-positive reductions: gd=%v spsa=%v", gd, spsa)
	}
	if gd <= spsa {
		t.Errorf("GD reduction %.3f not above SPSA %.3f", gd, spsa)
	}
}

func TestShapeCommDominatedByAcquireUnderGD(t *testing.T) {
	res, err := runQtenon(vqa.VQE, QuickScale.HeadlineQubits(), host.BoomL(), backend.GD, QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Comm.Percent()
	if p[2] < p[0] || p[2] < p[1] {
		t.Errorf("GD comm breakdown q_set/q_update/q_acquire = %.1f/%.1f/%.1f; q_acquire should dominate", p[0], p[1], p[2])
	}
}
