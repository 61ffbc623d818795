package system

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/report"
	"qtenon/internal/sched"
	"qtenon/internal/sim"
	"qtenon/internal/vqa"
)

func smallQAOA(t *testing.T) *vqa.Workload {
	t.Helper()
	w, err := vqa.NewQAOA(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runQtenon drives a full optimization through the shared backend run
// loop on a factory-minted Qtenon system.
func runQtenon(t *testing.T, cfg Config, w *vqa.Workload, alg backend.Algorithm, o opt.Options) report.RunResult {
	t.Helper()
	res, err := backend.Run(Factory{Cfg: cfg}, w, alg, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBase is the same loop on the decoupled baseline.
func runBase(t *testing.T, cfg baseline.Config, w *vqa.Workload, alg backend.Algorithm, o opt.Options) report.RunResult {
	t.Helper()
	res, err := backend.Run(baseline.Factory{Cfg: cfg}, w, alg, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 0
	if _, err := New(cfg, w); err == nil {
		t.Error("accepted zero shots")
	}
	cfg = DefaultConfig(host.Rocket())
	cfg.ControllerHz = 0
	if _, err := New(cfg, w); err == nil {
		t.Error("accepted zero controller clock")
	}
}

func TestEvaluateProducesCostAndAccounting(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 100
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := s.Evaluate(w.InitialParams)
	if err != nil {
		t.Fatal(err)
	}
	if cost > 0 {
		t.Errorf("MaxCut cost = %v, want ≤ 0", cost)
	}
	res := s.Result()
	b := res.Breakdown
	if b.Quantum <= 0 {
		t.Error("no quantum time")
	}
	if b.Total() <= b.Quantum {
		t.Error("no classical time at all")
	}
	if res.Evaluations != 1 || res.InstructionCount < 4 {
		t.Errorf("evals=%d instrs=%d", res.Evaluations, res.InstructionCount)
	}
	// First evaluation generates every pulse once.
	if res.PulsesGenerated == 0 {
		t.Error("no pulses generated on first evaluation")
	}
}

func TestIncrementalSecondEvalIsCheap(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 100
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	first := s.Result()
	firstPulses := first.PulsesGenerated
	firstClassical := first.Breakdown.Classical()

	// Shift one parameter (the GD pattern).
	params := append([]float64(nil), w.InitialParams...)
	params[0] += 0.5
	if _, err := s.Evaluate(params); err != nil {
		t.Fatal(err)
	}
	second := s.Result()
	secondPulses := second.PulsesGenerated - firstPulses
	secondClassical := second.Breakdown.Classical() - firstClassical
	// Only the gates bound to parameter 0 regenerate: far fewer than the
	// full program.
	if secondPulses >= firstPulses/2 {
		t.Errorf("second eval regenerated %d of %d pulses; SLT/incremental path broken", secondPulses, firstPulses)
	}
	if secondClassical >= firstClassical {
		t.Errorf("second eval classical %v ≥ first %v", secondClassical, firstClassical)
	}
	// Repeating identical parameters: zero q_update traffic and zero new
	// pulses.
	before := s.Result().PulsesGenerated
	if _, err := s.Evaluate(params); err != nil {
		t.Fatal(err)
	}
	if s.Result().PulsesGenerated != before {
		t.Error("identical parameters regenerated pulses")
	}
}

func TestCommBreakdownPopulated(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 64
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	params := append([]float64(nil), w.InitialParams...)
	params[1] += 0.3
	if _, err := s.Evaluate(params); err != nil {
		t.Fatal(err)
	}
	c := s.Result().Comm
	if c.QSet <= 0 {
		t.Error("no q_set time recorded")
	}
	if c.QUpdate <= 0 {
		t.Error("no q_update time recorded")
	}
	if c.QAcquire <= 0 {
		t.Error("no q_acquire time recorded")
	}
	// q_update is single-cycle RoCC traffic: by far the cheapest class
	// per operation.
	if c.QUpdate >= c.QSet {
		t.Errorf("q_update %v ≥ q_set %v; datapath ❶ should be cheap", c.QUpdate, c.QSet)
	}
}

func TestFineGrainedBeatsFENCEEndToEnd(t *testing.T) {
	w := smallQAOA(t)
	o := opt.DefaultOptions()
	o.Iterations = 2
	run := func(mode sched.SyncMode) sim.Time {
		cfg := DefaultConfig(host.Rocket())
		cfg.Shots = 100
		cfg.Sync = mode
		return runQtenon(t, cfg, w, backend.SPSA, o).Breakdown.Total()
	}
	fence, fine := run(sched.FENCE), run(sched.FineGrained)
	if fine >= fence {
		t.Errorf("fine-grained %v not below FENCE %v", fine, fence)
	}
}

func TestBatchingReducesHostActivity(t *testing.T) {
	// Figure 16(b): batching amortizes per-delivery handling, shrinking
	// host computation time (activity, including overlapped work).
	w := smallQAOA(t)
	o := opt.DefaultOptions()
	o.Iterations = 2
	run := func(batching bool) (sim.Time, sim.Time) {
		cfg := DefaultConfig(host.Rocket())
		cfg.Shots = 200
		cfg.Batching = batching
		res := runQtenon(t, cfg, w, backend.SPSA, o)
		return res.HostActivity, res.CommActivity
	}
	bHost, bComm := run(true)
	uHost, uComm := run(false)
	if bHost >= uHost {
		t.Errorf("batched host activity %v not below per-shot %v", bHost, uHost)
	}
	if bComm >= uComm {
		t.Errorf("batched comm activity %v not below per-shot %v", bComm, uComm)
	}
}

func TestHardwareOnlySlowerThanFull(t *testing.T) {
	w := smallQAOA(t)
	o := opt.DefaultOptions()
	o.Iterations = 2
	full := runQtenon(t, DefaultConfig(host.Rocket()), w, backend.SPSA, o)
	hw := runQtenon(t, HardwareOnlyConfig(host.Rocket()), w, backend.SPSA, o)
	if full.Breakdown.Total() >= hw.Breakdown.Total() {
		t.Errorf("full Qtenon %v not below hardware-only %v", full.Breakdown.Total(), hw.Breakdown.Total())
	}
	if full.Breakdown.Quantum != hw.Breakdown.Quantum {
		t.Errorf("quantum time differs between configs: %v vs %v", full.Breakdown.Quantum, hw.Breakdown.Quantum)
	}
}

func TestInstructionEconomyVsBaseline(t *testing.T) {
	w := smallQAOA(t)
	o := opt.DefaultOptions()
	o.Iterations = 2
	qres := runQtenon(t, DefaultConfig(host.Rocket()), w, backend.GD, o)
	bres := runBase(t, baseline.DefaultConfig(), w, backend.GD, o)
	if qres.InstructionCount*10 > bres.InstructionCount {
		t.Errorf("Qtenon %d instrs vs baseline %d: advantage < 10×",
			qres.InstructionCount, bres.InstructionCount)
	}
}

// The headline integration check (Figure 13 shape at reduced scale plus
// the real 64-qubit point): Qtenon end-to-end beats the baseline and
// flips the breakdown from communication-dominated to quantum-dominated.
func TestEndToEndSpeedupShape64q(t *testing.T) {
	if testing.Short() {
		t.Skip("64-qubit end-to-end run")
	}
	w, err := vqa.New(vqa.VQE, 64)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions() // 10 iterations, the paper's setting
	base := runBase(t, baseline.DefaultConfig(), w, backend.SPSA, o)
	qt := runQtenon(t, DefaultConfig(host.BoomL()), w, backend.SPSA, o)
	speedup := float64(base.Breakdown.Total()) / float64(qt.Breakdown.Total())
	// Paper: 11.5× for 64q VQE under SPSA. Accept the right regime.
	if speedup < 5 || speedup > 25 {
		t.Errorf("end-to-end speedup = %.1f×, want ≈11× (5–25 acceptable)\nbaseline: %v\nqtenon: %v",
			speedup, base.Breakdown, qt.Breakdown)
	}
	// Quantum time is identical physics on both systems (same seed/chip).
	ratio := float64(base.Breakdown.Quantum) / float64(qt.Breakdown.Quantum)
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("quantum time mismatch: baseline %v vs qtenon %v", base.Breakdown.Quantum, qt.Breakdown.Quantum)
	}
	// Baseline: communication dominates. Qtenon: quantum dominates (≈90%
	// in the paper; require > 60%).
	if bp := base.Breakdown.Percent(); bp[1] < bp[0] {
		t.Errorf("baseline breakdown not comm-dominated: %v", base.Breakdown)
	}
	if qp := qt.Breakdown.Percent(); qp[0] < 60 {
		t.Errorf("Qtenon quantum share = %.1f%%, want > 60%%: %v", qp[0], qt.Breakdown)
	}
}
