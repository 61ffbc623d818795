package backend_test

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/report"
	"qtenon/internal/system"
)

// serialOnly hides a backend's Batcher implementation, forcing RunOn
// down the per-evaluation path.
type serialOnly struct{ b backend.Backend }

func (s serialOnly) Evaluate(p []float64) (float64, error) { return s.b.Evaluate(p) }
func (s serialOnly) Result() report.RunResult              { return s.b.Result() }

// Both machines implement Batcher.
func TestMachinesImplementBatcher(t *testing.T) {
	w := goldenWorkload(t)
	for name, f := range map[string]backend.Factory{
		"qtenon":   system.Factory{Cfg: system.DefaultConfig(host.BoomL())},
		"baseline": baseline.Factory{Cfg: baseline.DefaultConfig()},
	} {
		b, err := f.New(w)
		if err != nil {
			t.Fatal(err)
		}
		if backend.BatchOf(b) == nil {
			t.Errorf("%s backend does not implement Batcher", name)
		}
	}
	if backend.BatchOf(serialOnly{}) != nil {
		t.Error("BatchOf invented a batch evaluator for a plain backend")
	}
}

// The batched GD route and the forced-serial route must produce
// identical RunResults on both machines — values, accounting, history,
// everything. This is the Batcher contract RunOn relies on.
func TestBatchedRunMatchesSerialRun(t *testing.T) {
	w := goldenWorkload(t)
	o := goldenOptions()
	factories := map[string]backend.Factory{
		"qtenon":   system.Factory{Cfg: system.DefaultConfig(host.BoomL())},
		"baseline": baseline.Factory{Cfg: baseline.DefaultConfig()},
	}
	for mach, f := range factories {
		t.Run(mach+"/gd", func(t *testing.T) {
			bb, err := f.New(w)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := backend.RunOn(bb, w.InitialParams, backend.GD, o)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := f.New(w)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := backend.RunOn(serialOnly{sb}, w.InitialParams, backend.GD, o)
			if err != nil {
				t.Fatal(err)
			}
			compareRunResults(t, batched, serial)
		})
	}
}

func compareRunResults(t *testing.T, got, want report.RunResult) {
	t.Helper()
	if got.Breakdown != want.Breakdown {
		t.Errorf("breakdown = %+v, want %+v", got.Breakdown, want.Breakdown)
	}
	if got.Comm != want.Comm {
		t.Errorf("comm = %+v, want %+v", got.Comm, want.Comm)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("evaluations = %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.InstructionCount != want.InstructionCount {
		t.Errorf("instructions = %d, want %d", got.InstructionCount, want.InstructionCount)
	}
	if got.HostActivity != want.HostActivity {
		t.Errorf("host activity = %d, want %d", got.HostActivity, want.HostActivity)
	}
	if got.CommActivity != want.CommActivity {
		t.Errorf("comm activity = %d, want %d", got.CommActivity, want.CommActivity)
	}
	if got.PulsesGenerated != want.PulsesGenerated {
		t.Errorf("pulses = %d, want %d", got.PulsesGenerated, want.PulsesGenerated)
	}
	if got.SLTHitRate != want.SLTHitRate {
		t.Errorf("SLT hit rate = %.17g, want %.17g", got.SLTHitRate, want.SLTHitRate)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("history length = %d, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			t.Errorf("history[%d] = %.17g, want %.17g", i, got.History[i], want.History[i])
		}
	}
}

var _ opt.Evaluator = serialOnly{}.Evaluate
