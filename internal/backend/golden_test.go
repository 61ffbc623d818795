package backend_test

import (
	"hash/fnv"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/report"
	"qtenon/internal/sim"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// golden pins the exact RunResult of one machine × workload × optimizer
// cell, with default configs (seed 1) and 3 optimizer iterations. Every
// field — times down to the picosecond, instruction counts, SLT hit
// rate, cost history — must reproduce bit-for-bit. Any drift here means
// a change altered simulation semantics, not just plumbing.
//
// The four 8-qubit QAOA cells were recorded on the seed tree and run the
// dense engine. The VQE cells pin the shot path the QAOA cells leave
// open: the 64-qubit cells run the product engine's sampler on both
// machines (Figure 13's run), and the 12-qubit cell runs the dense
// sampler under SPSA. Each cost in their histories is the VQE estimate
// of the sampled outcome words, so a change to the draw order or to the
// rounding of the estimate fails them.
//
// snapshot is the FNV-64a hash of the backend's metrics snapshot JSON
// after the run. It pins every instrument, so a bug that changes only a
// metric fails here too. A change that adds, renames or removes an
// instrument re-records it.
type golden struct {
	machine string // "qtenon" or "baseline"
	kind    vqa.Kind
	qubits  int
	alg     backend.Algorithm

	breakdown        report.Breakdown
	comm             report.CommBreakdown
	evaluations      int
	instructionCount int
	hostActivity     sim.Time
	commActivity     sim.Time
	pulsesGenerated  int64
	sltHitRate       float64
	history          []float64
	method           string
	snapshot         uint64
}

var goldens = map[string]golden{
	"qtenon/gd": {
		machine:          "qtenon",
		kind:             vqa.QAOA,
		qubits:           8,
		alg:              backend.GD,
		breakdown:        report.Breakdown{Quantum: 47880000000, Comm: 2127000, PulseGen: 106763000, HostComp: 40451343},
		comm:             report.CommBreakdown{QSet: 75000, QUpdate: 116000, QAcquire: 1936000},
		evaluations:      63,
		instructionCount: 306,
		hostActivity:     440306358,
		commActivity:     31167000,
		pulsesGenerated:  808,
		sltHitRate:       0.91990483743061058,
		history:          []float64{-3.8359999999999999, -4.0759999999999996, -5.1059999999999999},
		method:           "dense",
		snapshot:         0x6d9584433e6f8e83,
	},
	"baseline/gd": {
		machine:          "baseline",
		kind:             vqa.QAOA,
		qubits:           8,
		alg:              backend.GD,
		breakdown:        report.Breakdown{Quantum: 47880000000, Comm: 252509664960, PulseGen: 10584000000, HostComp: 55441890000},
		evaluations:      63,
		instructionCount: 9828,
		hostActivity:     55441890000,
		commActivity:     252509664960,
		pulsesGenerated:  10584,
		history:          []float64{-3.8359999999999999, -4.0759999999999996, -5.1059999999999999},
		method:           "dense",
		snapshot:         0x24adc26ddfa2d50c,
	},
	"qtenon/spsa": {
		machine:          "qtenon",
		kind:             vqa.QAOA,
		qubits:           8,
		alg:              backend.SPSA,
		breakdown:        report.Breakdown{Quantum: 6840000000, Comm: 433000, PulseGen: 87265000, HostComp: 7294554},
		comm:             report.CommBreakdown{QSet: 75000, QUpdate: 80000, QAcquire: 278000},
		evaluations:      9,
		instructionCount: 108,
		hostActivity:     64416699,
		commActivity:     4603000,
		pulsesGenerated:  696,
		sltHitRate:       0.51933701657458564,
		history:          []float64{-4.3120000000000003, -4.0860000000000003, -4.6360000000000001},
		method:           "dense",
		snapshot:         0xc59b343664a27f4f,
	},
	"baseline/spsa": {
		machine:          "baseline",
		kind:             vqa.QAOA,
		qubits:           8,
		alg:              backend.SPSA,
		breakdown:        report.Breakdown{Quantum: 6840000000, Comm: 36072809280, PulseGen: 1512000000, HostComp: 7920270000},
		evaluations:      9,
		instructionCount: 1404,
		hostActivity:     7920270000,
		commActivity:     36072809280,
		pulsesGenerated:  1512,
		history:          []float64{-4.3120000000000003, -4.0860000000000003, -4.6360000000000001},
		method:           "dense",
		snapshot:         0x17dd336321be8135,
	},
	"qtenon/vqe64-spsa": {
		machine:          "qtenon",
		kind:             vqa.VQE,
		qubits:           64,
		alg:              backend.SPSA,
		breakdown:        report.Breakdown{Quantum: 4950000000, Comm: 1893000, PulseGen: 224314000, HostComp: 91837845},
		comm:             report.CommBreakdown{QSet: 201000, QUpdate: 1536000, QAcquire: 156000},
		evaluations:      9,
		instructionCount: 1564,
		hostActivity:     202258233,
		commActivity:     21237000,
		pulsesGenerated:  1792,
		sltHitRate:       0.14909781576448244,
		history:          []float64{-15.024166666666671, -15.422800000000008, -18.05380000000001},
		method:           "product",
		snapshot:         0xd4bbe98ed6697e51,
	},
	"baseline/vqe64-spsa": {
		machine:          "baseline",
		kind:             vqa.VQE,
		qubits:           64,
		alg:              backend.SPSA,
		breakdown:        report.Breakdown{Quantum: 4950000000, Comm: 36076564800, PulseGen: 5130000000, HostComp: 9153684000},
		evaluations:      9,
		instructionCount: 5265,
		hostActivity:     9153684000,
		commActivity:     36076564800,
		pulsesGenerated:  5130,
		history:          []float64{-15.024166666666671, -15.422800000000008, -18.05380000000001},
		method:           "product",
		snapshot:         0x6e501fea0d318de1,
	},
	"qtenon/vqe12-spsa": {
		machine:          "qtenon",
		kind:             vqa.VQE,
		qubits:           12,
		alg:              backend.SPSA,
		breakdown:        report.Breakdown{Quantum: 4950000000, Comm: 609000, PulseGen: 46126000, HostComp: 19297737},
		comm:             report.CommBreakdown{QSet: 57000, QUpdate: 288000, QAcquire: 264000},
		evaluations:      9,
		instructionCount: 316,
		hostActivity:     80521920,
		commActivity:     6681000,
		pulsesGenerated:  336,
		sltHitRate:       0.13846153846153847,
		history:          []float64{-2.6913999999999993, -3.4754000000000009, -4.1936333333333335},
		method:           "dense",
		snapshot:         0x12c7897306495385,
	},
}

func goldenWorkload(t *testing.T) *vqa.Workload {
	t.Helper()
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenFactories mints each golden machine from its default config.
var goldenFactories = map[string]backend.Factory{
	"qtenon":   system.Factory{Cfg: system.DefaultConfig(host.BoomL())},
	"baseline": baseline.Factory{Cfg: baseline.DefaultConfig()},
}

func goldenOptions() opt.Options {
	o := opt.DefaultOptions()
	o.Iterations = 3
	return o
}

func checkGolden(t *testing.T, got report.RunResult, want golden) {
	t.Helper()
	if got.Breakdown != want.breakdown {
		t.Errorf("breakdown = %+v, want %+v", got.Breakdown, want.breakdown)
	}
	if got.Comm != want.comm {
		t.Errorf("comm = %+v, want %+v", got.Comm, want.comm)
	}
	if got.Evaluations != want.evaluations {
		t.Errorf("evaluations = %d, want %d", got.Evaluations, want.evaluations)
	}
	if got.InstructionCount != want.instructionCount {
		t.Errorf("instructions = %d, want %d", got.InstructionCount, want.instructionCount)
	}
	if got.HostActivity != want.hostActivity {
		t.Errorf("host activity = %d, want %d", got.HostActivity, want.hostActivity)
	}
	if got.CommActivity != want.commActivity {
		t.Errorf("comm activity = %d, want %d", got.CommActivity, want.commActivity)
	}
	if got.PulsesGenerated != want.pulsesGenerated {
		t.Errorf("pulses generated = %d, want %d", got.PulsesGenerated, want.pulsesGenerated)
	}
	if got.SLTHitRate != want.sltHitRate {
		t.Errorf("SLT hit rate = %.17g, want %.17g", got.SLTHitRate, want.sltHitRate)
	}
	if len(got.History) != len(want.history) {
		t.Fatalf("history length = %d, want %d", len(got.History), len(want.history))
	}
	for i := range want.history {
		if got.History[i] != want.history[i] {
			t.Errorf("history[%d] = %.17g, want %.17g", i, got.History[i], want.history[i])
		}
	}
	if got.Method != want.method {
		t.Errorf("method = %q, want %q", got.Method, want.method)
	}
}

// checkSnapshot compares the hash of b's metrics snapshot with the
// golden digest, printing the snapshot on a mismatch.
func checkSnapshot(t *testing.T, b backend.Backend, want uint64) {
	t.Helper()
	js, err := backend.MetricsOf(b).Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	if got := h.Sum64(); got != want {
		t.Errorf("metrics snapshot digest = %#x, want %#x; snapshot:\n%s", got, want, js)
	}
}

// TestGoldenEquivalence runs every golden cell through the unified
// backend run loop and asserts its exact recorded numbers.
func TestGoldenEquivalence(t *testing.T) {
	o := goldenOptions()
	for key, want := range goldens {
		t.Run(key, func(t *testing.T) {
			w, err := vqa.New(want.kind, want.qubits)
			if err != nil {
				t.Fatal(err)
			}
			// backend.Run, with the backend kept for its snapshot.
			b, err := goldenFactories[want.machine].New(w)
			if err != nil {
				t.Fatal(err)
			}
			res, err := backend.RunOn(b, w.InitialParams, want.alg, o)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res, want)
			checkSnapshot(t, b, want.snapshot)
		})
	}
}

// TestFactoryInstancesIndependent re-runs the same factory twice and
// demands identical results: factory-minted backends share no state, so
// a prior run can never perturb a later one.
func TestFactoryInstancesIndependent(t *testing.T) {
	w := goldenWorkload(t)
	o := goldenOptions()
	f := system.Factory{Cfg: system.DefaultConfig(host.BoomL())}
	first, err := backend.Run(f, w, backend.SPSA, o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := backend.Run(f, w, backend.SPSA, o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, second, goldens["qtenon/spsa"])
	if first.Breakdown != second.Breakdown {
		t.Errorf("re-run diverged: %+v vs %+v", first.Breakdown, second.Breakdown)
	}
}
