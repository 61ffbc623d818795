package route_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/route"
	"qtenon/internal/vqa"
)

// BenchmarkRunAllocRegression pins the number of allocations one warmed
// Run makes on each engine, over the bound VQE ansatz the chip runs.
// testing.AllocsPerRun sets GOMAXPROCS to 1 while it measures, so
// internal/par runs every chunk inline and the counts are the engines'
// own. The dense and sharded engines still allocate on every Run: the
// executor's par.Do closures escape to the heap, one per local group,
// global op or multi-chunk build; the product surrogate allocates
// nothing. A case with shots also samples the system's default
// 500 shots after each Run, which rebuilds the sampler's alias tables
// into recycled storage and reseeds its recycled sub-stream in place;
// sampling allocates the outcome slice and its reductions' closures and
// partial sums, and nothing per block. The dense12-shift case runs one gradient-descent
// iteration's 73 circuits in the optimizer's order, so most of its Runs
// resume from the dense engine's prefix checkpoint, whose storage the
// warm-up allocates once; a Run that saves a checkpoint splits its
// local group in two, so the 24 saving Runs cost one closure more. Each pin is the measured count, so one new
// allocation per call fails it. CI runs it via `-bench=Alloc
// -benchtime=1x`.
func BenchmarkRunAllocRegression(b *testing.B) {
	cases := []struct {
		name   string
		method route.Method
		qubits int
		shift  bool // one GD iteration's circuits, not the ansatz once
		shots  int
		allocs float64
	}{
		{"dense12", route.Dense, 12, false, 0, 1},
		{"dense16", route.Dense, 16, false, 0, 12},
		{"dense12-shift", route.Dense, 12, true, 0, 97},
		{"sharded17", route.Sharded, 17, false, 0, 6},
		{"sharded17+sample", route.Sharded, 17, false, 500, 14},
		{"product64", route.Product, 64, false, 0, 0},
	}
	for _, tc := range cases {
		w, err := vqa.New(vqa.VQE, tc.qubits)
		if err != nil {
			b.Fatal(err)
		}
		circuits := []*circuit.Circuit{w.Circuit.Bind(w.InitialParams)}
		if tc.shift {
			circuits = shiftIteration(w)
		}
		sim, err := route.NewSimulator(tc.method, tc.qubits)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		run := func() {
			for _, c := range circuits {
				if err := sim.Run(c); err != nil {
					b.Fatal(err)
				}
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

// shiftIteration binds one gradient-descent iteration of w in the
// optimizer's order: every parameter shifted by +π/2 and then −π/2,
// [+0, −0, +1, −1, …], then an updated point where every parameter
// moves.
func shiftIteration(w *vqa.Workload) []*circuit.Circuit {
	var cs []*circuit.Circuit
	for j := range w.InitialParams {
		for _, shift := range []float64{math.Pi / 2, -math.Pi / 2} {
			p := slices.Clone(w.InitialParams)
			p[j] += shift
			cs = append(cs, w.Circuit.Bind(p))
		}
	}
	p := slices.Clone(w.InitialParams)
	for i := range p {
		p[i] -= 0.01
	}
	return append(cs, w.Circuit.Bind(p))
}
