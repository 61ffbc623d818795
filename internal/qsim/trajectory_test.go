package qsim

import (
	"math"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/rng"
)

func TestTrajectoryValidation(t *testing.T) {
	src := rng.NewStream(1)
	unbound := circuit.NewBuilder(1).RXP(0, 0).MustBuild()
	if _, err := RunTrajectory(unbound, src); err == nil {
		t.Error("accepted unbound circuit")
	}
}

func TestTrajectoryRecordsMeasurements(t *testing.T) {
	src := rng.NewStream(2)
	c := circuit.NewBuilder(2).X(0).Measure(0).Measure(1).MustBuild()
	tr, err := RunTrajectory(c, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Bits) != 2 || tr.Bit(0) != 1 || tr.Bit(1) != 0 {
		t.Errorf("bits = %v, want [1 0]", tr.Bits)
	}
	if tr.Qubits[0] != 0 || tr.Qubits[1] != 1 {
		t.Errorf("qubits = %v", tr.Qubits)
	}
}

func TestMidCircuitCollapsePropagates(t *testing.T) {
	// Measure half a Bell pair mid-circuit: the partner qubit's later
	// measurement always agrees.
	src := rng.NewStream(3)
	c := circuit.NewBuilder(2).H(0).CX(0, 1).Measure(0).Measure(1).MustBuild()
	zeros, ones := 0, 0
	for trial := 0; trial < 300; trial++ {
		tr, err := RunTrajectory(c, src)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Bit(0) != tr.Bit(1) {
			t.Fatalf("trial %d: Bell halves disagree: %v", trial, tr.Bits)
		}
		if tr.Bit(0) == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros < 100 || ones < 100 {
		t.Errorf("outcome split %d/%d, want ≈150/150", zeros, ones)
	}
}

// Quantum teleportation with feed-forward: the canonical test that
// mid-circuit measurement + classically-controlled correction works.
func TestTeleportation(t *testing.T) {
	src := rng.NewStream(4)
	theta, phi := 0.7, 1.1 // arbitrary state to teleport

	for trial := 0; trial < 100; trial++ {
		// Prepare |ψ⟩ on q0 (RY then RZ), entangle q1–q2, Bell-measure
		// q0,q1.
		pre := circuit.NewBuilder(3).
			RY(0, theta).RZ(0, phi). // the payload state
			H(1).CX(1, 2).           // shared Bell pair
			CX(0, 1).H(0).
			Measure(0).Measure(1).
			MustBuild()
		tr, err := RunTrajectory(pre, src)
		if err != nil {
			t.Fatal(err)
		}
		// Feed-forward corrections on q2: X^m1 then Z^m0.
		if tr.Bit(1) == 1 {
			tr.Final.Apply(circuit.Gate{Kind: circuit.X, Qubit: 2, Param: circuit.NoParam})
		}
		if tr.Bit(0) == 1 {
			tr.Final.Apply(circuit.Gate{Kind: circuit.Z, Qubit: 2, Param: circuit.NoParam})
		}
		// q2 must now hold |ψ⟩: compare against a directly prepared copy
		// via ⟨Z⟩ and ⟨X⟩ on the target qubit.
		ref, err := Run(circuit.NewBuilder(1).RY(0, theta).RZ(0, phi).MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Final.ExpectationZ(2), ref.ExpectationZ(0); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: teleported ⟨Z⟩ = %v, want %v (bits %v)", trial, got, want, tr.Bits)
		}
		// ⟨X⟩ via H-basis check.
		gotX := xExpectation(tr.Final, 2)
		wantX := xExpectation(ref, 0)
		if math.Abs(gotX-wantX) > 1e-9 {
			t.Fatalf("trial %d: teleported ⟨X⟩ = %v, want %v", trial, gotX, wantX)
		}
	}
}

func xExpectation(s *State, q int) float64 {
	c := s.Clone()
	c.Apply(circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam})
	return c.ExpectationZ(q)
}
