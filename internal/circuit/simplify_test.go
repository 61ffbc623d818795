package circuit

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplifyRemovesIdentity(t *testing.T) {
	c := NewBuilder(2).H(0).MustBuild()
	c.Gates = append([]Gate{{Kind: I, Qubit: 1, Param: NoParam}}, c.Gates...)
	s := Simplify(c)
	if len(s.Gates) != 1 || s.Gates[0].Kind != H {
		t.Errorf("gates = %v", s.Gates)
	}
}

func TestSimplifyCancelsSelfInverse(t *testing.T) {
	tests := []struct {
		name string
		c    *Circuit
		want int
	}{
		{"XX", NewBuilder(1).X(0).X(0).MustBuild(), 0},
		{"HH", NewBuilder(1).H(0).H(0).MustBuild(), 0},
		{"ZZ", NewBuilder(1).Z(0).Z(0).MustBuild(), 0},
		{"YY", NewBuilder(1).Y(0).Y(0).MustBuild(), 0},
		{"CXCX", NewBuilder(2).CX(0, 1).CX(0, 1).MustBuild(), 0},
		{"CZCZ swapped operands", NewBuilder(2).CZ(0, 1).CZ(1, 0).MustBuild(), 0},
		{"CX reversed does NOT cancel", NewBuilder(2).CX(0, 1).CX(1, 0).MustBuild(), 2},
		{"XX with H between on same qubit", NewBuilder(1).X(0).H(0).X(0).MustBuild(), 3},
		{"XX with spectator between", NewBuilder(2).X(0).H(1).X(0).MustBuild(), 1},
		{"nested HH XX HH", NewBuilder(1).H(0).X(0).X(0).H(0).MustBuild(), 0},
	}
	for _, tt := range tests {
		if got := len(Simplify(tt.c).Gates); got != tt.want {
			t.Errorf("%s: %d gates, want %d (%v)", tt.name, got, tt.want, Simplify(tt.c).Gates)
		}
	}
}

func TestSimplifyMergesRotations(t *testing.T) {
	c := NewBuilder(1).RZ(0, 0.3).RZ(0, 0.5).MustBuild()
	s := Simplify(c)
	if len(s.Gates) != 1 || math.Abs(s.Gates[0].Theta-0.8) > 1e-12 {
		t.Errorf("gates = %v", s.Gates)
	}
	// Rotations summing to 2π vanish.
	c = NewBuilder(1).RX(0, math.Pi).RX(0, math.Pi).MustBuild()
	if s := Simplify(c); len(s.Gates) != 0 {
		t.Errorf("RX(π)RX(π) not removed: %v", s.Gates)
	}
	// So do rotations summing to 0 up to rounding: the merged angle
	// here is 5.55e-17, not 0.
	c = NewBuilder(1).RZ(0, 0.1).RZ(0, 0.2).RZ(0, -0.3).MustBuild()
	if s := Simplify(c); len(s.Gates) != 0 {
		t.Errorf("RZ(0.1)RZ(0.2)RZ(-0.3) not removed: %v", s.Gates)
	}
	// RZZ merges regardless of operand order.
	c = NewBuilder(2).RZZ(0, 1, 0.2).RZZ(1, 0, 0.3).MustBuild()
	s = Simplify(c)
	if len(s.Gates) != 1 || math.Abs(s.Gates[0].Theta-0.5) > 1e-12 {
		t.Errorf("RZZ merge = %v", s.Gates)
	}
}

func TestSimplifyFoldsPhaseGates(t *testing.T) {
	c := NewBuilder(1).S(0).S(0).MustBuild()
	s := Simplify(c)
	if len(s.Gates) != 1 || s.Gates[0].Kind != Z {
		t.Errorf("SS → %v, want Z", s.Gates)
	}
	// TT → S, and then with two more T: TTTT → SS → Z.
	c = NewBuilder(1).T(0).T(0).T(0).T(0).MustBuild()
	s = Simplify(c)
	if len(s.Gates) != 1 || s.Gates[0].Kind != Z {
		t.Errorf("TTTT → %v, want Z", s.Gates)
	}
}

func TestSimplifyPreservesParameterized(t *testing.T) {
	// Parameterized gates never merge — their value is set at runtime.
	c := NewBuilder(1).RXP(0, 0).RXP(0, 0).MustBuild()
	if s := Simplify(c); len(s.Gates) != 2 {
		t.Errorf("parameterized gates merged: %v", s.Gates)
	}
	// But fixed gates around them do.
	c = NewBuilder(1).X(0).X(0).RXP(0, 0).MustBuild()
	if s := Simplify(c); len(s.Gates) != 1 || s.Gates[0].Param != 0 {
		t.Errorf("gates = %v", s.Gates)
	}
}

func TestSimplifyMeasurementBarrier(t *testing.T) {
	c := NewBuilder(1).X(0).Measure(0).X(0).MustBuild()
	if s := Simplify(c); len(s.Gates) != 3 {
		t.Errorf("X·measure·X simplified across the measurement: %v", s.Gates)
	}
}

func TestSimplifyNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		c := randomCircuit(rng, 4, 30)
		s := Simplify(c)
		if len(s.Gates) > len(c.Gates) {
			t.Fatalf("trial %d: grew from %d to %d gates", trial, len(c.Gates), len(s.Gates))
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid output: %v", trial, err)
		}
	}
}

func randomCircuit(rng *rand.Rand, n, gates int) *Circuit {
	kinds := []Kind{X, Y, Z, H, S, T, RX, RY, RZ, CZ, CX, RZZ}
	b := NewBuilder(n)
	for i := 0; i < gates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		g := Gate{Kind: k, Qubit: rng.Intn(n), Param: NoParam}
		if k.Arity() == 2 {
			g.Qubit2 = (g.Qubit + 1 + rng.Intn(n-1)) % n
		}
		if k.Parameterized() {
			// Bias toward repeatable angles so cancellations occur.
			g.Theta = []float64{math.Pi, -math.Pi, 0.5, -0.5, math.Pi / 2}[rng.Intn(5)]
		}
		b.Gate(g)
		// Occasionally duplicate the previous gate to create pairs.
		if rng.Intn(3) == 0 {
			b.Gate(g)
		}
	}
	return b.MustBuild()
}

func TestSimplifyReducesRedundantCircuits(t *testing.T) {
	// A circuit of deliberate redundancy must shrink substantially.
	b := NewBuilder(3)
	for i := 0; i < 10; i++ {
		b.H(0).H(0).X(1).X(1).CX(1, 2).CX(1, 2)
	}
	c := b.MustBuild()
	s := Simplify(c)
	if len(s.Gates) != 0 {
		t.Errorf("fully redundant circuit left %d gates: %v", len(s.Gates), s.Gates)
	}
}
