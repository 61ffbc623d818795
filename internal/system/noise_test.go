package system

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/quantum"
	"qtenon/internal/trace"
	"qtenon/internal/vqa"
)

func TestNoisyExecutionRunsAndDiverges(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Iterations = 2
	clean := DefaultConfig(host.Rocket())
	clean.Shots = 300
	noisy := clean
	noisy.Noise = quantum.Noise{Readout: 0.2}

	cres := runQtenon(t, clean, w, backend.SPSA, o)
	nres := runQtenon(t, noisy, w, backend.SPSA, o)
	// Heavy readout noise changes the observed costs...
	same := true
	for i := range cres.History {
		if cres.History[i] != nres.History[i] {
			same = false
		}
	}
	if same {
		t.Error("noisy run identical to clean run")
	}
	// ...but not the architecture timing: quantum time is pinned by the
	// circuit schedule, noise or not.
	if cres.Breakdown.Quantum != nres.Breakdown.Quantum {
		t.Errorf("noise changed quantum time: %v vs %v",
			cres.Breakdown.Quantum, nres.Breakdown.Quantum)
	}
	for _, bad := range []quantum.Noise{{Readout: 2}, {Readout: -0.2}, {Depolar1Q: -1}} {
		c := clean
		c.Noise = bad
		if _, err := New(c, w); err == nil {
			t.Errorf("invalid noise %+v accepted", bad)
		}
	}
}

func TestTraceRecordsEvaluationSpans(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 100
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	s.SetTrace(rec)
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	// The quantum lane's busy time matches the accounted quantum time.
	if got, want := rec.Busy("quantum"), s.Result().Breakdown.Quantum; got != want {
		t.Errorf("trace quantum busy %v != accounted %v", got, want)
	}
	// The virtual clock equals the total accounted time.
	if s.now != s.Result().Breakdown.Total() {
		t.Errorf("now %v != breakdown total %v", s.now, s.Result().Breakdown.Total())
	}
	// Disabling the tracer stops recording.
	s.SetTrace(nil)
	n := rec.Len()
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != n {
		t.Error("spans recorded after SetTrace(nil)")
	}
}
