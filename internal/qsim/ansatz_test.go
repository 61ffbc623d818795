package qsim_test

import (
	"testing"

	"qtenon/internal/qsim"
	"qtenon/internal/vqa"
)

// TestAnsatzRunsReal pins the property the statevector engines' real
// path rests on: the bound VQE and QNN ansätze, RY layers and CZ
// bricks, compile to programs whose real prefix is every op, so each
// op sweeps the real amplitudes alone; QAOA's real prefix is its H
// layer, since its RZZ batches are complex. A fusion change that makes
// the VQE program complex fails here rather than doubling its sweeps.
func TestAnsatzRunsReal(t *testing.T) {
	for _, n := range []int{12, 16, 24} {
		for _, kind := range []vqa.Kind{vqa.VQE, vqa.QNN, vqa.QAOA} {
			w, err := vqa.New(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			realLen, pre, ops := qsim.RealPrefix(w.Circuit.Bind(w.InitialParams).Gates)
			want := ops
			if kind == vqa.QAOA {
				want = n
				if pre != n {
					t.Errorf("%s: product prefix %d ops, want the %d-op H layer", w.Name, pre, n)
				}
			}
			if realLen != want {
				t.Errorf("%s: real prefix %d of %d ops, want %d", w.Name, realLen, ops, want)
			}
		}
	}
}
