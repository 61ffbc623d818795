package route_test

import (
	"math/rand"
	"testing"

	"qtenon/internal/route"
	"qtenon/internal/vqa"
)

// BenchmarkRunAllocRegression pins the number of allocations one warmed
// Run makes on each engine, over the bound VQE ansatz the chip runs.
// testing.AllocsPerRun sets GOMAXPROCS to 1 while it measures, so
// internal/par runs every chunk inline and the counts are the engines'
// own. The dense and sharded engines still allocate on every Run (the
// executor's par.Do closures escape to the heap, and re-fusing grows
// diagonal term slices); the product surrogate allocates nothing. A case with shots
// also samples the system's default 500 shots after each Run, which
// rebuilds the sampler's alias tables into recycled storage. Each pin is
// the measured count, so one new allocation per call fails it. CI runs
// it via `-bench=Alloc -benchtime=1x`.
func BenchmarkRunAllocRegression(b *testing.B) {
	cases := []struct {
		name   string
		method route.Method
		qubits int
		shots  int
		allocs float64
	}{
		{"dense12", route.Dense, 12, 0, 17},
		{"dense16", route.Dense, 16, 0, 32},
		{"sharded17", route.Sharded, 17, 0, 23},
		{"sharded17+sample", route.Sharded, 17, 500, 34},
		{"product64", route.Product, 64, 0, 0},
	}
	for _, tc := range cases {
		w, err := vqa.New(vqa.VQE, tc.qubits)
		if err != nil {
			b.Fatal(err)
		}
		bound := w.Circuit.Bind(w.InitialParams)
		sim, err := route.NewSimulator(tc.method, tc.qubits)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		run := func() {
			if err := sim.Run(bound); err != nil {
				b.Fatal(err)
			}
			if tc.shots > 0 {
				sim.Sample(tc.shots, rng)
			}
		}
		run() // warm the arena
		for i := 0; i < b.N; i++ {
			if got := testing.AllocsPerRun(3, run); got > tc.allocs {
				b.Fatalf("%s: warmed call allocates %.0f times, pinned at %.0f — a kernel or the sampler started allocating",
					tc.name, got, tc.allocs)
			}
		}
	}
}
