package baseline

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/opt"
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

func TestLinkMessageTime(t *testing.T) {
	l := DefaultLink()
	small := l.MessageTime(8)
	big := l.MessageTime(1 << 20)
	if small <= l.PerMessage {
		t.Errorf("small message %v not above fixed overhead", small)
	}
	if big <= small {
		t.Error("payload time not growing")
	}
	// 1 MiB at 100 Gb/s ≈ 84 µs of payload.
	payload := big - l.PerMessage
	if payload < 80*sim.Microsecond || payload > 90*sim.Microsecond {
		t.Errorf("1 MiB payload time = %v, want ≈84µs", payload)
	}
	// Decoupled round-trip latency lands in Table 1's ms-class window for
	// kilobyte messages (overhead-dominated).
	if rt := 2 * l.MessageTime(1024); rt < 10*sim.Microsecond {
		t.Errorf("round trip %v implausibly fast for a decoupled system", rt)
	}
}

func TestNewValidation(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig()
	cfg.Shots = 0
	if _, err := New(cfg, w); err == nil {
		t.Error("accepted zero shots")
	}
	cfg = DefaultConfig()
	cfg.Costs.JITPerGate = 0
	if _, err := New(cfg, w); err == nil {
		t.Error("accepted invalid costs")
	}
}

func TestEvaluateAccounting(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig()
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
	if b.Quantum <= 0 || b.Comm <= 0 || b.PulseGen <= 0 || b.HostComp <= 0 {
		t.Errorf("breakdown has empty category: %+v", b)
	}
	// Sequential system: per-shot result messages dominate communication.
	perShotComm := sim.Time(cfg.Shots) * cfg.Link.MessageTime(1)
	if b.Comm < perShotComm {
		t.Errorf("comm %v below the per-shot floor %v", b.Comm, perShotComm)
	}
	if res.Evaluations != 1 {
		t.Errorf("evals = %d", res.Evaluations)
	}
}

func TestRunGDAndSPSA(t *testing.T) {
	w := smallQAOA(t)
	cfg := DefaultConfig()
	cfg.Shots = 50
	o := opt.DefaultOptions()
	o.Iterations = 2

	gd, err := backend.Run(Factory{Cfg: cfg}, w, backend.GD, o)
	if err != nil {
		t.Fatal(err)
	}
	if gd.Evaluations != (2*w.NumParams()+1)*2 {
		t.Errorf("GD evals = %d", gd.Evaluations)
	}
	sp, err := backend.Run(Factory{Cfg: cfg}, w, backend.SPSA, o)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Evaluations != 3*2 {
		t.Errorf("SPSA evals = %d", sp.Evaluations)
	}
	// GD runs more evaluations than SPSA here, so every category grows.
	if gd.Breakdown.Total() <= sp.Breakdown.Total() {
		t.Error("GD total not above SPSA total despite more evaluations")
	}
	if gd.InstructionCount <= sp.InstructionCount {
		t.Error("instruction counts not tracking evaluations")
	}
	if len(gd.History) != 2 {
		t.Errorf("history = %d", len(gd.History))
	}
}

func TestCommunicationDominatesAt64Qubits(t *testing.T) {
	// The motivation result (Figure 1): on the decoupled baseline at 64
	// qubits, quantum execution is a small fraction and communication the
	// largest classical component.
	w, err := vqa.New(vqa.VQE, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	b := s.Result().Breakdown
	p := b.Percent()
	if p[0] > 30 {
		t.Errorf("quantum share = %.1f%%, want small on the baseline", p[0])
	}
	if b.Comm < b.PulseGen || b.Comm < b.HostComp {
		t.Errorf("communication not dominant: %v", b)
	}
}
