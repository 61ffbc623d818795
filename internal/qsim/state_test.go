package qsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qtenon/internal/circuit"
)

const eps = 1e-12

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestInitialState(t *testing.T) {
	s := NewState(3)
	if s.NQubits() != 3 {
		t.Errorf("NQubits = %d", s.NQubits())
	}
	amp := s.Amplitudes()
	if len(amp) != 8 || amp[0] != 1 {
		t.Fatalf("initial state wrong: %v", amp)
	}
	if !approx(s.Norm(), 1) {
		t.Errorf("Norm = %v", s.Norm())
	}
}

func TestPauliX(t *testing.T) {
	s := NewState(2)
	s.Apply(circuit.Gate{Kind: circuit.X, Qubit: 1, Param: circuit.NoParam})
	// |10⟩ in qubit order → index 0b10 = 2.
	if a := s.Amplitudes()[2]; !approx(real(a), 1) || !approx(imag(a), 0) {
		t.Errorf("X|00⟩ amp[2] = %v", a)
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.Apply(circuit.Gate{Kind: circuit.H, Qubit: 0, Param: circuit.NoParam})
	amp := s.Amplitudes()
	w := 1 / math.Sqrt2
	if !approx(real(amp[0]), w) || !approx(real(amp[1]), w) {
		t.Errorf("H|0⟩ = %v", amp)
	}
	// H is self-inverse.
	s.Apply(circuit.Gate{Kind: circuit.H, Qubit: 0, Param: circuit.NoParam})
	if !approx(real(s.Amplitudes()[0]), 1) {
		t.Errorf("HH|0⟩ = %v", s.Amplitudes())
	}
}

func TestBellState(t *testing.T) {
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MustBuild()
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	amp := s.Amplitudes()
	w := 1 / math.Sqrt2
	if !approx(real(amp[0]), w) || !approx(real(amp[3]), w) ||
		!approx(real(amp[1]), 0) || !approx(real(amp[2]), 0) {
		t.Errorf("Bell state = %v", amp)
	}
	if !approx(s.ExpectationZZ(0, 1), 1) {
		t.Errorf("⟨ZZ⟩ = %v, want 1", s.ExpectationZZ(0, 1))
	}
	if !approx(s.ExpectationZ(0), 0) {
		t.Errorf("⟨Z0⟩ = %v, want 0", s.ExpectationZ(0))
	}
}

func TestRotationAngles(t *testing.T) {
	// RX(π)|0⟩ = -i|1⟩; RY(π)|0⟩ = |1⟩; RZ leaves |0⟩ up to phase.
	s := NewState(1)
	s.Apply(circuit.Gate{Kind: circuit.RX, Qubit: 0, Theta: math.Pi, Param: circuit.NoParam})
	if a := s.Amplitudes()[1]; !approx(imag(a), -1) {
		t.Errorf("RX(π)|0⟩ = %v", s.Amplitudes())
	}
	s = NewState(1)
	s.Apply(circuit.Gate{Kind: circuit.RY, Qubit: 0, Theta: math.Pi, Param: circuit.NoParam})
	if a := s.Amplitudes()[1]; !approx(real(a), 1) {
		t.Errorf("RY(π)|0⟩ = %v", s.Amplitudes())
	}
	s = NewState(1)
	s.Apply(circuit.Gate{Kind: circuit.RZ, Qubit: 0, Theta: 1.3, Param: circuit.NoParam})
	p := s.Probabilities()
	if !approx(p[0], 1) {
		t.Errorf("RZ changed probabilities: %v", p)
	}
}

func TestRYExpectation(t *testing.T) {
	// ⟨Z⟩ after RY(θ)|0⟩ is cos θ.
	for _, theta := range []float64{0, 0.3, 1.1, math.Pi / 2, 2.7, math.Pi} {
		s := NewState(1)
		s.Apply(circuit.Gate{Kind: circuit.RY, Qubit: 0, Theta: theta, Param: circuit.NoParam})
		if got := s.ExpectationZ(0); !approx(got, math.Cos(theta)) {
			t.Errorf("⟨Z⟩ after RY(%v) = %v, want %v", theta, got, math.Cos(theta))
		}
	}
}

func TestCZPhase(t *testing.T) {
	// CZ on |11⟩ flips sign; on others does nothing.
	c := circuit.NewBuilder(2).X(0).X(1).CZ(0, 1).MustBuild()
	s, _ := Run(c)
	if a := s.Amplitudes()[3]; !approx(real(a), -1) {
		t.Errorf("CZ|11⟩ = %v", a)
	}
	c = circuit.NewBuilder(2).X(0).CZ(0, 1).MustBuild()
	s, _ = Run(c)
	if a := s.Amplitudes()[1]; !approx(real(a), 1) {
		t.Errorf("CZ|01⟩ = %v", a)
	}
}

func TestRZZEquivalentToCXRZCX(t *testing.T) {
	// exp(-iθ/2 ZZ) == CX(0,1); RZ(θ) on 1; CX(0,1), up to global phase 0.
	theta := 0.77
	pre := circuit.NewBuilder(2).H(0).RY(1, 0.4)
	c1 := pre.MustBuild().Clone()
	c1.Gates = append(c1.Gates, circuit.Gate{Kind: circuit.RZZ, Qubit: 0, Qubit2: 1, Theta: theta, Param: circuit.NoParam})
	c2 := pre.MustBuild().Clone()
	c2.Gates = append(c2.Gates,
		circuit.Gate{Kind: circuit.CX, Qubit: 0, Qubit2: 1, Param: circuit.NoParam},
		circuit.Gate{Kind: circuit.RZ, Qubit: 1, Theta: theta, Param: circuit.NoParam},
		circuit.Gate{Kind: circuit.CX, Qubit: 0, Qubit2: 1, Param: circuit.NoParam})
	s1, _ := Run(c1)
	s2, _ := Run(c2)
	if f := s1.Fidelity(s2); !approx(f, 1) {
		t.Errorf("RZZ vs CX·RZ·CX fidelity = %v", f)
	}
}

func TestGHZProbabilities(t *testing.T) {
	c := circuit.NewBuilder(3).H(0).CX(0, 1).CX(1, 2).MustBuild()
	s, _ := Run(c)
	p := s.Probabilities()
	if !approx(p[0], 0.5) || !approx(p[7], 0.5) {
		t.Errorf("GHZ probabilities = %v", p)
	}
	for i := 1; i < 7; i++ {
		if p[i] > eps {
			t.Errorf("GHZ leak at %d: %v", i, p[i])
		}
	}
}

func TestSampleDistribution(t *testing.T) {
	c := circuit.NewBuilder(2).H(0).CX(0, 1).MustBuild()
	s, _ := Run(c)
	rng := rand.New(rand.NewSource(42))
	shots := 20000
	samples := s.Sample(shots, rng)
	counts := map[uint64]int{}
	for _, v := range samples {
		counts[v]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Errorf("Bell sample hit impossible outcomes: %v", counts)
	}
	frac := float64(counts[0]) / float64(shots)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("Bell |00⟩ fraction = %v, want ≈0.5", frac)
	}
}

func TestMeasureQubitCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		c := circuit.NewBuilder(2).H(0).CX(0, 1).MustBuild()
		s, _ := Run(c)
		b0 := s.MeasureQubit(0, rng)
		b1 := s.MeasureQubit(1, rng)
		if b0 != b1 {
			t.Fatalf("Bell measurement disagreement: %d vs %d", b0, b1)
		}
		if !approx(s.Norm(), 1) {
			t.Fatalf("post-measurement norm = %v", s.Norm())
		}
	}
}

func TestRunRejects(t *testing.T) {
	unbound := circuit.NewBuilder(1).RXP(0, 0).MustBuild()
	if _, err := Run(unbound); err == nil {
		t.Error("Run accepted unbound circuit")
	}
	invalid := &circuit.Circuit{NQubits: 1, Gates: []circuit.Gate{{Kind: circuit.H, Qubit: 5, Param: circuit.NoParam}}}
	if _, err := Run(invalid); err == nil {
		t.Error("Run accepted invalid circuit")
	}
}

// Apply panics on a qubit outside the register, whichever executor path
// (one tile or several) the gate would take.
func TestApplyRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		n int
		g circuit.Gate
	}{
		{3, circuit.Gate{Kind: circuit.H, Qubit: 3, Param: circuit.NoParam}},
		{13, circuit.Gate{Kind: circuit.RY, Qubit: 13, Theta: 0.4, Param: circuit.NoParam}},
		{3, circuit.Gate{Kind: circuit.CX, Qubit: 0, Qubit2: 5, Param: circuit.NoParam}},
		{3, circuit.Gate{Kind: circuit.CZ, Qubit: 0, Qubit2: 5, Param: circuit.NoParam}},
		{3, circuit.Gate{Kind: circuit.RZZ, Qubit: -1, Qubit2: 1, Theta: 0.4, Param: circuit.NoParam}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d qubits: Apply(%v) did not panic", tc.n, tc.g)
				}
			}()
			NewState(tc.n).Apply(tc.g)
		}()
	}
}

// Property: every gate preserves the norm (unitarity), on random states
// reached by random circuits.
func TestUnitarityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kinds := []circuit.Kind{circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.T,
		circuit.RX, circuit.RY, circuit.RZ, circuit.CZ, circuit.CX, circuit.RZZ}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		s := NewState(n)
		for g := 0; g < 40; g++ {
			k := kinds[rng.Intn(len(kinds))]
			gate := circuit.Gate{Kind: k, Qubit: rng.Intn(n), Theta: rng.NormFloat64() * 2, Param: circuit.NoParam}
			if k.Arity() == 2 {
				gate.Qubit2 = (gate.Qubit + 1 + rng.Intn(n-1)) % n
			}
			s.Apply(gate)
			if math.Abs(s.Norm()-1) > 1e-9 {
				t.Fatalf("trial %d: norm drifted to %v after %v", trial, s.Norm(), gate)
			}
		}
	}
}

// Property: X is an involution and HZH = X on arbitrary reachable states.
func TestAlgebraicIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		s := NewState(3)
		for i := 0; i < 10; i++ {
			s.Apply(circuit.Gate{Kind: circuit.RY, Qubit: rng.Intn(3), Theta: rng.NormFloat64(), Param: circuit.NoParam})
			s.Apply(circuit.Gate{Kind: circuit.CX, Qubit: rng.Intn(3), Qubit2: (rng.Intn(2) + 1 + rng.Intn(1)) % 3, Param: circuit.NoParam})
		}
		q := rng.Intn(3)
		viaX := s.Clone()
		viaX.Apply(circuit.Gate{Kind: circuit.X, Qubit: q, Param: circuit.NoParam})
		viaHZH := s.Clone()
		viaHZH.Apply(circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam})
		viaHZH.Apply(circuit.Gate{Kind: circuit.Z, Qubit: q, Param: circuit.NoParam})
		viaHZH.Apply(circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam})
		if f := viaX.Fidelity(viaHZH); !approx(f, 1) {
			t.Fatalf("trial %d: HZH≠X, fidelity %v", trial, f)
		}
	}
}

// Property (quick): RZ(a) then RZ(b) equals RZ(a+b).
func TestRZComposition(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 2*math.Pi), math.Mod(b, 2*math.Pi)
		s1 := NewState(1)
		s1.Apply(circuit.Gate{Kind: circuit.H, Qubit: 0, Param: circuit.NoParam})
		s2 := s1.Clone()
		s1.Apply(circuit.Gate{Kind: circuit.RZ, Qubit: 0, Theta: a, Param: circuit.NoParam})
		s1.Apply(circuit.Gate{Kind: circuit.RZ, Qubit: 0, Theta: b, Param: circuit.NoParam})
		s2.Apply(circuit.Gate{Kind: circuit.RZ, Qubit: 0, Theta: a + b, Param: circuit.NoParam})
		return math.Abs(s1.Fidelity(s2)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRun16Qubit(b *testing.B) {
	bld := circuit.NewBuilder(16)
	for q := 0; q < 16; q++ {
		bld.H(q)
	}
	for q := 0; q < 15; q++ {
		bld.CX(q, q+1)
	}
	c := bld.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
}
