package engine_test

import (
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/engine"
	"qtenon/internal/route"
)

// methods lists the four engines behind Simulator; route.NewSimulator
// is the one constructor the chip uses to build them.
var methods = []route.Method{route.Dense, route.Clifford, route.Product, route.Sharded}

// TestConformance runs every engine through the Simulator surface on a
// circuit all four support exactly (single-qubit X flips are exact in
// the product surrogate too): |101⟩ must sample as 5 on every shot, a
// fixed seed must repeat its draw, and a second Run must reset first.
func TestConformance(t *testing.T) {
	c := circuit.NewBuilder(3).X(0).X(2).MeasureAll().MustBuild()
	for _, m := range methods {
		t.Run(m.String(), func(t *testing.T) {
			var s engine.Simulator
			s, err := route.NewSimulator(m, 3)
			if err != nil {
				t.Fatal(err)
			}
			if s.NQubits() != 3 {
				t.Fatalf("NQubits = %d", s.NQubits())
			}
			for run := 0; run < 2; run++ {
				if err := s.Run(c); err != nil {
					t.Fatal(err)
				}
				a := s.Sample(5, rand.New(rand.NewSource(7)))
				b := s.Sample(5, rand.New(rand.NewSource(7)))
				if len(a) != 5 || len(b) != 5 {
					t.Fatalf("sample lengths %d/%d", len(a), len(b))
				}
				for i := range a {
					if a[i] != 5 || b[i] != 5 {
						t.Fatalf("run %d: shot %d sampled %d and %d, want 5", run, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestConstructorValidation checks the width each engine rejects: 0
// qubits for every method, and past the dense and sharded limits. A
// rejected width yields a nil Simulator, never a typed nil pointer
// inside one.
func TestConstructorValidation(t *testing.T) {
	for _, m := range methods {
		if s, err := route.NewSimulator(m, 0); err == nil || s != nil {
			t.Errorf("%v: NewSimulator(0) = (%v, %v), want a nil Simulator and an error", m, s, err)
		}
	}
	if _, err := route.NewSimulator(route.Dense, qsim.MaxQubits+1); err == nil {
		t.Error("dense simulator past qsim.MaxQubits")
	}
	if _, err := route.NewSimulator(route.Sharded, qsim.ShardedMaxQubits+1); err == nil {
		t.Error("sharded simulator past qsim.ShardedMaxQubits")
	}
}
