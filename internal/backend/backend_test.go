package backend_test

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/system"
)

func TestAlgorithmString(t *testing.T) {
	cases := map[backend.Algorithm]string{
		backend.GD:             "GD",
		backend.SPSA:           "SPSA",
		backend.Algorithm(250): "algorithm(250)",
	}
	for alg, want := range cases {
		if got := alg.String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", alg, got, want)
		}
	}
}

// TestMetricsOf covers the instrumentation escape hatch: both adapters
// expose their registry, and a Backend that is not Instrumented yields
// nil (which the metrics API treats as a valid no-op registry).
func TestMetricsOf(t *testing.T) {
	w := goldenWorkload(t)
	qb, err := system.Factory{Cfg: system.DefaultConfig(host.Rocket())}.New(w)
	if err != nil {
		t.Fatal(err)
	}
	if backend.MetricsOf(qb) == nil {
		t.Error("Qtenon backend exposes no registry")
	}
	bb, err := baseline.Factory{Cfg: baseline.DefaultConfig()}.New(w)
	if err != nil {
		t.Fatal(err)
	}
	if backend.MetricsOf(bb) == nil {
		t.Error("baseline backend exposes no registry")
	}
	if backend.MetricsOf(nil) != nil {
		t.Error("nil backend produced a registry")
	}
}

// TestSnapshotCoversMachineLayers is the acceptance check for the
// metrics registry: one optimization run on the Qtenon machine must
// leave a live (non-zero) count from every hardware/software layer in a
// single snapshot.
func TestSnapshotCoversMachineLayers(t *testing.T) {
	w := goldenWorkload(t)
	b, err := system.Factory{Cfg: system.DefaultConfig(host.Rocket())}.New(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.RunOn(b, w.InitialParams, backend.SPSA, goldenOptions()); err != nil {
		t.Fatal(err)
	}
	snap := backend.MetricsOf(b).Snapshot()
	live := map[string]int64{
		"sim.events_executed":      snap.Counters["sim.events_executed"],
		"tilelink.beats_issued":    snap.Counters["tilelink.beats_issued"],
		"slt.lookups":              snap.Counters["slt.lookups"],
		"controller.instr.q_gen":   snap.Counters["controller.instr.q_gen"],
		"pulse.generated":          snap.Counters["pulse.generated"],
		"system.evaluations":       snap.Counters["system.evaluations"],
		"quantum.shots":            snap.Counters["quantum.shots"],
		"host.prep_ps (timer obs)": snap.Timers["host.prep_ps"].Count,
	}
	for name, v := range live {
		if v == 0 {
			t.Errorf("%s = 0, want live count after a full run", name)
		}
	}
}

// TestBaselineSnapshotLive does the same for the decoupled machine: its
// much smaller component set still reports real activity.
func TestBaselineSnapshotLive(t *testing.T) {
	w := goldenWorkload(t)
	b, err := baseline.Factory{Cfg: baseline.DefaultConfig()}.New(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.RunOn(b, w.InitialParams, backend.SPSA, goldenOptions()); err != nil {
		t.Fatal(err)
	}
	snap := backend.MetricsOf(b).Snapshot()
	for _, name := range []string{"system.evaluations", "host.jit_compiles", "host.messages", "controller.instructions", "quantum.shots", "pulse.generated"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0, want live count", name)
		}
	}
}
