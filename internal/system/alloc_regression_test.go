package system

import (
	"math"
	"testing"

	"qtenon/internal/host"
	"qtenon/internal/vqa"
)

// evaluateAllocCeiling bounds the allocations one warmed Evaluate may
// make. It is the measured count of the 12-qubit/100-shot evaluation:
// fresh Outcomes and the batch plan remain by design, and the rest are
// the event engine's closures; the dense engine's Run allocates
// nothing and its Sample only the outcome slice, which
// internal/route's BenchmarkRunAllocRegression pins on its own. The
// router's circuit analysis keeps its flags on the stack up to 64
// qubits, and no tag maps are left: the SLT's only amortized
// growth is its QSpace tables and pulse-slot owner slices, which the
// fewest-over-windows rule below absorbs. Losing any scratch buffer
// (statevector, alias table, sub-stream, regfile image, diff plan, RBQ
// data), or one new allocation per kernel call, trips it.
const evaluateAllocCeiling = 7

// spsaEvaluateAllocCeiling is the measured count of a 64-qubit/500-shot
// Evaluate in which every parameter moves, as under SPSA (Figure 13):
// the SLT misses on nearly every gate, so each call writes back, looks
// up and allocates pulse slots on all 64 qubits, and none of that may
// allocate once the tables are grown, nor may the router's analysis of
// the 64-qubit circuit.
const spsaEvaluateAllocCeiling = 7

// BenchmarkEvaluateAllocRegression fails the build when a warmed-up cost
// evaluation starts allocating like the arenas are gone. CI runs it via
// `-bench=Alloc -benchtime=1x`.
func BenchmarkEvaluateAllocRegression(b *testing.B) {
	cases := []struct {
		name    string
		qubits  int
		shots   int
		moveAll bool // move every parameter by its own step, not only the first
		// warm is the number of calls made before measuring. Moving every
		// parameter allocates about three pulse slots per qubit per call,
		// so 400 calls wrap each qubit's 1,024-slot pulse store: its owner
		// slice is full and its QSpace table has reached its final size.
		warm    int
		ceiling int
	}{
		{"vqe12-one-param", 12, 100, false, 2, evaluateAllocCeiling},
		{"vqe64-every-param", 64, 500, true, 400, spsaEvaluateAllocCeiling},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			w, err := vqa.New(vqa.VQE, tc.qubits)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(host.BoomL())
			cfg.Shots = tc.shots
			s, err := New(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			params := append([]float64(nil), w.InitialParams...)
			eval := func() {
				params[0] += 1e-3
				if tc.moveAll {
					for i := 1; i < len(params); i++ {
						params[i] += 1e-3 * float64(i+1)
					}
				}
				if _, err := s.Evaluate(params); err != nil {
					b.Fatal(err)
				}
			}
			// Warm every arena (statevector, sampler, image, diff, RBQ).
			for i := 0; i < tc.warm; i++ {
				eval()
			}
			// Moving parameters reach new angles on every call, so the SLT
			// keeps allocating pulse slots and writing back to QSpace, and
			// a window that catches an amortized growth of their storage
			// counts a few extra allocations. A per-call allocation shows
			// in every window, so the fewest over all windows is what is
			// gated.
			fewest := math.Inf(1)
			for i := 0; i < b.N; i++ {
				fewest = min(fewest, testing.AllocsPerRun(5, eval))
			}
			if fewest > float64(tc.ceiling) {
				b.Fatalf("warmed Evaluate allocates %.0f times per call, ceiling %d — a hot-path arena regressed",
					fewest, tc.ceiling)
			}
		})
	}
}
