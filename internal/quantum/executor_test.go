package quantum

import (
	"testing"

	"qtenon/internal/circuit"
)

func TestSurrogateDeterministicAcrossRuns(t *testing.T) {
	// Identical circuits on identically seeded chips: identical outcomes
	// even for >64-qubit registers (RNG stream includes windowed qubits).
	mk := func() []uint64 {
		chip, err := NewChip(80, 123, Noise{})
		if err != nil {
			t.Fatal(err)
		}
		b := circuit.NewBuilder(80)
		for q := 0; q < 80; q++ {
			b.RY(q, 0.2+0.01*float64(q))
		}
		b.MeasureAll()
		ex, err := chip.Execute(b.MustBuild(), 20)
		if err != nil {
			t.Fatal(err)
		}
		return ex.Outcomes
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("wide surrogate not deterministic")
		}
	}
}

func TestWideOutcomesFitWindow(t *testing.T) {
	chip, _ := NewChip(80, 5, Noise{})
	b := circuit.NewBuilder(80)
	for q := 0; q < 80; q++ {
		b.X(q) // all qubits |1⟩
	}
	b.MeasureAll()
	ex, err := chip.Execute(b.MustBuild(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ex.Outcomes {
		if o != ^uint64(0) {
			t.Errorf("outcome = %#x, want all window bits set", o)
		}
	}
}
