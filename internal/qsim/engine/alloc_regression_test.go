package engine_test

import (
	"testing"

	"qtenon/internal/qsim/engine"
	"qtenon/internal/vqa"
)

// BenchmarkRunAllocRegression pins the number of allocations one warmed
// Run makes on each engine, over the bound VQE ansatz the chip runs.
// testing.AllocsPerRun sets GOMAXPROCS to 1 while it measures, so
// internal/par runs every chunk inline and the counts are the engines'
// own. The dense and sharded engines still allocate on every Run (their
// par.For closures escape to the heap, and re-fusing grows diagonal term
// slices); the product surrogate allocates nothing. Each pin is the
// measured count, so one new allocation per Run fails it. CI runs it via
// `-bench=Alloc -benchtime=1x`.
func BenchmarkRunAllocRegression(b *testing.B) {
	cases := []struct {
		name   string
		qubits int
		build  func(n int) (engine.Simulator, error)
		allocs float64
	}{
		{"dense12", 12, func(n int) (engine.Simulator, error) { return engine.NewDense(n) }, 17},
		{"dense16", 16, func(n int) (engine.Simulator, error) { return engine.NewDense(n) }, 44},
		{"sharded17", 17, func(n int) (engine.Simulator, error) { return engine.NewSharded(n) }, 23},
		{"product64", 64, func(n int) (engine.Simulator, error) { return engine.NewProduct(n) }, 0},
	}
	for _, tc := range cases {
		w, err := vqa.New(vqa.VQE, tc.qubits)
		if err != nil {
			b.Fatal(err)
		}
		bound := w.Circuit.Bind(w.InitialParams)
		sim, err := tc.build(tc.qubits)
		if err != nil {
			b.Fatal(err)
		}
		run := func() {
			if err := sim.Run(bound); err != nil {
				b.Fatal(err)
			}
		}
		run() // warm the arena
		for i := 0; i < b.N; i++ {
			if got := testing.AllocsPerRun(3, run); got > tc.allocs {
				b.Fatalf("%s: warmed Run allocates %.0f times per call, pinned at %.0f — a kernel started allocating",
					tc.name, got, tc.allocs)
			}
		}
	}
}
