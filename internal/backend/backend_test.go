package backend_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
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

// Both machines implement Batcher: perfbench's probe refuses a backend
// that does not (perfbench/run.go, probeFactory.New).
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
		if _, ok := b.(backend.Batcher); !ok {
			t.Errorf("%s backend does not implement backend.Batcher", name)
		}
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

// TestEvaluateRejectsNonFiniteParams requires both machines to reject a
// NaN or infinite parameter with an error naming its index, and a vector
// one short or one long with an error naming both lengths, and to leave
// no trace of the call: the RunResult, the metrics snapshot and the next
// valid cost must equal those of a machine that never saw it. It covers
// the first and last index, on a fresh machine and after one valid
// evaluation (when the incremental compiler holds diff state).
func TestEvaluateRejectsNonFiniteParams(t *testing.T) {
	w, err := vqa.New(vqa.VQE, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]float64(nil), w.InitialParams...)
	next[0] += 0.25
	snapshot := func(b backend.Backend) string {
		js, err := backend.MetricsOf(b).Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	type badParams struct {
		name, msg string
		params    []float64
	}
	var cases []badParams
	n := len(w.InitialParams)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, idx := range []int{0, n - 1} {
			params := append([]float64(nil), w.InitialParams...)
			params[idx] = bad
			cases = append(cases, badParams{fmt.Sprintf("%v/param%d", bad, idx), fmt.Sprintf("parameter %d ", idx), params})
		}
	}
	for _, l := range []int{n - 1, n + 1} {
		params := make([]float64, l)
		copy(params, w.InitialParams)
		cases = append(cases, badParams{fmt.Sprintf("len%d", l), fmt.Sprintf("%d parameters, want %d", l, n), params})
	}
	for mach, f := range goldenFactories {
		for _, bc := range cases {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/warm=%v", mach, bc.name, warm)
				ref, err := f.New(w)
				if err != nil {
					t.Fatal(err)
				}
				b, err := f.New(w)
				if err != nil {
					t.Fatal(err)
				}
				if warm {
					for _, m := range []backend.Backend{ref, b} {
						if _, err := m.Evaluate(w.InitialParams); err != nil {
							t.Fatal(err)
						}
					}
				}
				cost, err := b.Evaluate(bc.params)
				if err == nil {
					t.Fatalf("%s: Evaluate returned cost %v and no error", name, cost)
				}
				if !strings.Contains(err.Error(), bc.msg) {
					t.Errorf("%s: error %q does not name %q", name, err, bc.msg)
				}
				if got, want := b.Result(), ref.Result(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: after the rejected call Result = %+v, want %+v", name, got, want)
				}
				got, err := b.Evaluate(next)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Evaluate(next)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: next cost %v, want %v", name, got, want)
				}
				if !reflect.DeepEqual(b.Result(), ref.Result()) || snapshot(b) != snapshot(ref) {
					t.Errorf("%s: the rejected call changed the accounting or the metrics", name)
				}
			}
		}
	}
}
