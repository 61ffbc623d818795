package system

import (
	"math"
	"testing"

	"qtenon/internal/host"
	"qtenon/internal/vqa"
)

// evaluateAllocCeiling bounds the allocations one warmed Evaluate may
// make. It is the measured count of the 12-qubit/100-shot evaluation:
// fresh Outcomes and batch planning remain by design, and 1 is the
// dense engine's Run, which internal/route's BenchmarkRunAllocRegression
// pins on its own. The sampler's per-block sub-stream is recycled and
// reseeded in place, so it allocates nothing. Losing any scratch buffer
// (statevector, alias table, sub-stream, regfile image, diff plan, RBQ
// data), or one new allocation per kernel call, trips it.
const evaluateAllocCeiling = 16

// BenchmarkEvaluateAllocRegression fails the build when a warmed-up cost
// evaluation starts allocating like the arenas are gone. CI runs it via
// `-bench=Alloc -benchtime=1x`.
func BenchmarkEvaluateAllocRegression(b *testing.B) {
	w, err := vqa.New(vqa.VQE, 12)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(host.BoomL())
	cfg.Shots = 100
	s, err := New(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	params := append([]float64(nil), w.InitialParams...)
	eval := func() {
		params[0] += 1e-3
		if _, err := s.Evaluate(params); err != nil {
			b.Fatal(err)
		}
	}
	eval() // warm every arena (statevector, sampler, image, diff, RBQ)
	eval()
	// params[0] reaches a new angle on every call, so the SLT's tag maps
	// keep growing, and a window that catches one of those amortized
	// growths counts a few extra allocations. A per-call allocation shows
	// in every window, so the fewest over all windows is what is gated.
	fewest := math.Inf(1)
	for i := 0; i < b.N; i++ {
		fewest = min(fewest, testing.AllocsPerRun(5, eval))
	}
	if fewest > evaluateAllocCeiling {
		b.Fatalf("warmed Evaluate allocates %.0f times per call, ceiling %d — a hot-path arena regressed",
			fewest, evaluateAllocCeiling)
	}
}
