package opt

import "testing"

// BenchmarkGradientDescentAllocRegression fails when a gradient-descent
// run allocates more than the 8 times it did when pinned: the
// parameter, point and gradient vectors, and five for the history's
// growth over 10 iterations. The evaluator allocates nothing, so one
// allocation per evaluation (250 of them here: 12 parameters, 10
// iterations) lifts the count far past the pin. CI runs it via
// `-bench=Alloc -benchtime=1x`.
func BenchmarkGradientDescentAllocRegression(b *testing.B) {
	const pin = 8
	eval := sinusoidal(12)
	initial := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2}
	o := DefaultOptions()
	run := func() {
		if _, err := GradientDescent(eval, initial, o); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		if got := testing.AllocsPerRun(5, run); got > pin {
			b.Fatalf("GradientDescent allocates %.0f times per run, want at most %d", got, pin)
		}
	}
}
