package opt

import "testing"

// BenchmarkShiftGradientBatchAllocRegression fails when a warmed
// parameter-shift gradient allocates. shiftGradientBatch writes the 2P
// shifted vectors into batchScratch, which the first call sizes and
// every later call at the same width reuses, so a warmed call makes no
// allocation of its own. The evaluator here allocates nothing either.
// CI runs it via `-bench=Alloc -benchtime=1x`.
func BenchmarkShiftGradientBatchAllocRegression(b *testing.B) {
	eval := BatchEvaluator(func(sets [][]float64, out []float64) error {
		for k, p := range sets {
			v, _ := batchTestCost(p)
			out[k] = v
		}
		return nil
	})
	params := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	grad := make([]float64, len(params))
	var scr batchScratch
	run := func() {
		if _, err := shiftGradientBatch(eval, params, DefaultOptions().ShiftScale, grad, &scr); err != nil {
			b.Fatal(err)
		}
	}
	run() // size the scratch
	for i := 0; i < b.N; i++ {
		if got := testing.AllocsPerRun(5, run); got != 0 {
			b.Fatalf("warmed shiftGradientBatch allocates %.0f times per call, want 0", got)
		}
	}
}
