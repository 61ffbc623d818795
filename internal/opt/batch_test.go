package opt

import (
	"fmt"
	"math"
	"testing"
)

// batchTestCost is a deterministic non-trivial objective: a coupled
// transcendental bowl whose gradient varies across iterations, so any
// ordering or numeric divergence between the serial and batched drivers
// shows up in the history.
func batchTestCost(p []float64) (float64, error) {
	s := 0.0
	for i, x := range p {
		s += math.Sin(x+0.3*float64(i)) + 0.5*x*x
		if i > 0 {
			s += 0.25 * math.Cos(x*p[i-1])
		}
	}
	return s, nil
}

func batchTestOptions(iters int) Options {
	o := DefaultOptions()
	o.Iterations = iters
	return o
}

// The batch a BatchEvaluator sees per iteration is [+0, −0, +1, −1, …]
// followed by one single-point batch at the updated parameters — the
// sequence GradientDescent's Batch adapter hands an Evaluator one point
// at a time (DESIGN.md §11.4).
func TestBatchOrderIsSerialShiftOrder(t *testing.T) {
	initial := []float64{1.0, 2.0}
	o := batchTestOptions(1)
	var batches [][]int // lengths seen
	var firstBatch [][]float64
	eval := func(sets [][]float64, out []float64) error {
		batches = append(batches, []int{len(sets)})
		if firstBatch == nil {
			for _, s := range sets {
				firstBatch = append(firstBatch, append([]float64(nil), s...))
			}
		}
		for k := range sets {
			v, err := batchTestCost(sets[k])
			if err != nil {
				return err
			}
			out[k] = v
		}
		return nil
	}
	if _, err := GradientDescentBatch(eval, initial, o); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0][0] != 4 || batches[1][0] != 1 {
		t.Fatalf("batch sizes = %v, want [[4] [1]]", batches)
	}
	s := o.ShiftScale
	want := [][]float64{
		{1 + s, 2}, {1 - s, 2},
		{1, 2 + s}, {1, 2 - s},
	}
	for k := range want {
		for i := range want[k] {
			if firstBatch[k][i] != want[k][i] {
				t.Fatalf("batch[%d] = %v, want %v", k, firstBatch[k], want[k])
			}
		}
	}
}

// Errors from the evaluator surface with the evaluations counted so far.
func TestBatchErrorPropagation(t *testing.T) {
	boom := fmt.Errorf("boom")
	eval := func(sets [][]float64, out []float64) error { return boom }
	if _, err := GradientDescentBatch(eval, []float64{1}, batchTestOptions(2)); err != boom {
		t.Errorf("GradientDescentBatch error = %v, want boom", err)
	}
}
