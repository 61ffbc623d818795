package qtenon

// One benchmark per table and figure of the paper's evaluation section.
// Each runs the corresponding experiment generator at Quick scale (so
// `go test -bench=.` terminates promptly); the full paper-scale runs are
// produced by `go run ./cmd/qtenon-bench`.

import (
	"fmt"
	"math/rand"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/bench"
	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/par"
	"qtenon/internal/qsim"
	"qtenon/internal/slt"
	"qtenon/internal/system"
	"qtenon/internal/tilelink"
	"qtenon/internal/vqa"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(name, bench.QuickScale); err != nil {
			b.Fatal(err)
		}
	}
}

// Tables.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Figures.
func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }

// Design-choice ablations beyond the paper (DESIGN.md §3).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// Simulation-method router demonstration (DESIGN.md §12).
func BenchmarkRouter(b *testing.B) { benchExperiment(b, "router") }

// Component micro-benchmarks: the hot paths behind the experiments.

func BenchmarkStatevector12Qubit(b *testing.B) {
	w, err := vqa.NewQAOA(12, 3)
	if err != nil {
		b.Fatal(err)
	}
	bound := w.Circuit.Bind(w.InitialParams)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qsim.Run(bound); err != nil {
			b.Fatal(err)
		}
	}
}

// benchApply1Q measures the single-qubit gate kernel on a 20-qubit
// statevector (2^20 amplitudes) under a fixed worker-pool width;
// workers == 1 is the serial seed kernel, 0 uses every core.
func benchApply1Q(b *testing.B, workers int) {
	par.SetWorkers(workers)
	defer par.SetWorkers(0)
	s := qsim.NewState(20)
	g := circuit.Gate{Kind: circuit.H, Qubit: 9, Param: circuit.NoParam}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(g)
	}
}

func BenchmarkApply1QSerial(b *testing.B)   { benchApply1Q(b, 1) }
func BenchmarkApply1QParallel(b *testing.B) { benchApply1Q(b, 0) }

// BenchmarkStatevector20Qubit runs a full 20-qubit QAOA circuit through
// the fused parallel engine plus one sampling pass — the per-evaluation
// hot path of every exact-backend experiment.
func BenchmarkStatevector20Qubit(b *testing.B) {
	w, err := vqa.NewQAOA(20, 3)
	if err != nil {
		b.Fatal(err)
	}
	bound := w.Circuit.Bind(w.InitialParams)
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := qsim.Run(bound)
		if err != nil {
			b.Fatal(err)
		}
		st.Sample(500, rng)
	}
}

// BenchmarkStatevector20QubitSerial is the same workload pinned to one
// worker — the before/after pair for the parallel engine.
func BenchmarkStatevector20QubitSerial(b *testing.B) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	BenchmarkStatevector20Qubit(b)
}

// BenchmarkStatevector20QubitWorkers sweeps the worker-pool width over
// the tiled 20-qubit kernels — the GOMAXPROCS scaling curve of
// EXPERIMENTS.md EXP-6. Amplitude arithmetic is identical at every
// width (chunk-ordered deterministic reductions), so only wall-clock
// moves.
func BenchmarkStatevector20QubitWorkers(b *testing.B) {
	w, err := vqa.NewQAOA(20, 3)
	if err != nil {
		b.Fatal(err)
	}
	bound := w.Circuit.Bind(w.InitialParams)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			par.SetWorkers(workers)
			defer par.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				if _, err := qsim.Run(bound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSample16Qubit measures one 500-shot Sample of a 16-qubit
// QAOA state: the alias-table rebuild, O(2^n), plus O(shots) draws.
func BenchmarkSample16Qubit(b *testing.B) {
	w, err := vqa.NewQAOA(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	st, err := qsim.Run(w.Circuit.Bind(w.InitialParams))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sample(500, rng)
	}
}

// BenchmarkQtenonEvaluation64q measures one full-Qtenon evaluation of
// Figure 13's 64-qubit VQE. Every parameter moves by its own step on
// each call, as under SPSA, so the SLT misses on nearly every gate and
// q_gen allocates pulse slots and writes back to QSpace as it does in
// that run.
func BenchmarkQtenonEvaluation64q(b *testing.B) {
	w, err := vqa.New(vqa.VQE, 64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := system.DefaultConfig(host.BoomL())
	cfg.Shots = 500
	sys, err := system.New(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	params := append([]float64(nil), w.InitialParams...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range params {
			params[j] += 1e-3 * float64(j+1)
		}
		if _, err := sys.Evaluate(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSLTLookup(b *testing.B) {
	s := slt.NewBank(1, 1024).Qubit(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(uint8(i%16), uint32(i%4096))
	}
}

func BenchmarkTileLinkTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bus, err := tilelink.NewBus(tilelink.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rbq := tilelink.NewRBQ(32, 8, 4096)
		if _, err := tilelink.Transfer(bus, rbq, 0, 256, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGDIteration(b *testing.B) {
	w, err := vqa.NewQAOA(10, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := system.DefaultConfig(host.Rocket())
	cfg.Shots = 100
	o := opt.DefaultOptions()
	o.Iterations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Run(system.Factory{Cfg: cfg}, w, backend.GD, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuitSchedule(b *testing.B) {
	w, err := vqa.New(vqa.VQE, 64)
	if err != nil {
		b.Fatal(err)
	}
	bound := w.Circuit.Bind(w.InitialParams)
	t := circuit.DefaultTiming()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.ScheduleASAP(bound, t)
	}
}
