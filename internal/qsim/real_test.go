package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"qtenon/internal/circuit"
)

// RealPrefix compiles a bound gate list and returns the lengths of its
// real prefix and its product prefix and its op count, for
// TestAnsatzRunsReal, which lives outside the package so that it can
// import vqa.
func RealPrefix(gates []circuit.Gate) (int, int, int) {
	var p program
	p.compile(gates)
	return p.real, p.pre, len(p.ops)
}

func gate(k circuit.Kind, q int, theta float64) circuit.Gate {
	return circuit.Gate{Kind: k, Qubit: q, Theta: theta, Param: circuit.NoParam}
}

func gate2(k circuit.Kind, a, b int, theta float64) circuit.Gate {
	return circuit.Gate{Kind: k, Qubit: a, Qubit2: b, Theta: theta, Param: circuit.NoParam}
}

// TestRealPrefixBoundary pins which ops a program's real prefix covers.
// The base circuit compiles to five real ops: two rotations, a Z·X
// fold, a CZ batch and a CX, which leaves qubits 1 and 2 blocked for
// that batch. A gate on them after the base, followed by one more CX,
// compiles to an op of its own after the base's. An RY, H, X, Z, CZ or
// CX there, or an RX, RZ or RZZ at angle 0, extends the prefix to the
// whole program; a Y, S, T, RX, RZ or RZZ at another angle ends it at
// that op, and real ops after it stay outside.
func TestRealPrefixBoundary(t *testing.T) {
	base := []circuit.Gate{
		gate(circuit.RY, 0, 0.3), gate(circuit.H, 1, 0), gate(circuit.X, 2, 0),
		gate2(circuit.CZ, 0, 1, 0), gate(circuit.Z, 2, 0), gate2(circuit.CX, 1, 2, 0),
	}
	var p program
	p.compile(base)
	n0 := len(p.ops)
	if n0 != 5 || p.real != n0 {
		t.Fatalf("base compiles to %d ops with real prefix %d, want 5 and 5", n0, p.real)
	}
	tail := gate2(circuit.CX, 1, 2, 0)
	for _, g := range []circuit.Gate{
		gate(circuit.RY, 1, 0.4), gate(circuit.H, 1, 0), gate(circuit.X, 1, 0),
		gate(circuit.Z, 1, 0), gate2(circuit.CZ, 1, 2, 0), gate2(circuit.CX, 2, 1, 0),
		gate(circuit.RX, 1, 0), gate(circuit.RZ, 1, 0), gate2(circuit.RZZ, 1, 2, 0),
	} {
		p.compile(slices.Concat(base, []circuit.Gate{g, tail}))
		if p.real != len(p.ops) {
			t.Errorf("%v: real prefix %d of %d ops, want all", g, p.real, len(p.ops))
		}
	}
	for _, g := range []circuit.Gate{
		gate(circuit.Y, 1, 0), gate(circuit.S, 1, 0), gate(circuit.T, 1, 0),
		gate(circuit.RX, 1, 0.7), gate(circuit.RZ, 1, 0.7), gate2(circuit.RZZ, 1, 2, 0.7),
	} {
		p.compile(slices.Concat(base, []circuit.Gate{g, tail, gate(circuit.RY, 1, 0.1)}))
		if p.real != n0 || len(p.ops) <= n0+1 {
			t.Errorf("%v: real prefix %d of %d ops, want %d", g, p.real, len(p.ops), n0)
		}
	}
}

// TestApplySweepsBothArrays checks that Apply never takes the real
// path: after an RX makes the state complex, every real gate must also
// update the imaginary parts, on qubits inside and past the first tile.
func TestApplySweepsBothArrays(t *testing.T) {
	const n = 13
	gates := []circuit.Gate{
		gate(circuit.RX, 0, 0.9), gate(circuit.RX, 12, 0.4),
		gate(circuit.H, 1, 0), gate(circuit.H, 12, 0), gate(circuit.RY, 5, 0.6),
		gate2(circuit.CZ, 0, 1, 0), gate2(circuit.CZ, 1, 12, 0), gate(circuit.Z, 12, 0),
		gate2(circuit.CX, 0, 3, 0), gate2(circuit.CX, 12, 2, 0), gate2(circuit.CX, 2, 12, 0),
		gate(circuit.X, 12, 0), gate(circuit.RY, 12, 1.1),
	}
	s := NewState(n)
	ref := make([]complex128, 1<<n)
	ref[0] = 1
	for _, g := range gates {
		s.Apply(g)
		refApply(ref, g)
		if s.one.real != 0 {
			t.Fatalf("%v: Apply's program has real prefix %d", g, s.one.real)
		}
	}
	for i, a := range s.Amplitudes() {
		if cmplx.Abs(a-ref[i]) > 1e-12 {
			t.Fatalf("amp[%d] = %v, reference %v", i, a, ref[i])
		}
	}
}

// TestRealRunClearsIm runs real programs on a State whose imaginary
// parts an Apply has just written, once where the Run builds and once
// where it resumes from a checkpoint within the real prefix. The build
// overwrites those parts and the resume restores the checkpoint's, and
// the real-prefix ops, which sweep re alone, leave them as they find
// them: the raw amplitude bits must equal a fresh State's, on one tile
// and on several.
func TestRealRunClearsIm(t *testing.T) {
	for _, n := range []int{6, 13} {
		params := make([]float64, 3*n)
		for i := range params {
			params[i] = 0.1 + float64(0.07*float64(i))
		}
		shifted := func(j int, d float64) *circuit.Circuit {
			p := slices.Clone(params)
			p[j] += d
			return vqeCircuit(n, p)
		}
		s := NewState(n)
		for i, c := range []*circuit.Circuit{
			shifted(n+1, math.Pi/2),  // builds, after the Apply below
			shifted(n+1, -math.Pi/2), // builds and saves a checkpoint
			shifted(n+2, math.Pi/2),  // resumes from it
		} {
			s.Apply(gate(circuit.RX, n-1, 0.8))
			if err := s.Run(c); err != nil {
				t.Fatal(err)
			}
			p := &s.runs[s.cur]
			if p.real != len(p.ops) {
				t.Fatalf("n=%d: VQE real prefix %d of %d ops", n, p.real, len(p.ops))
			}
			if resumed := s.ran < len(p.ops)-p.pre; resumed != (i == 2) {
				t.Fatalf("n=%d Run %d: resumed %v", n, i, resumed)
			}
			fresh := NewState(n)
			if err := fresh.Run(c); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("n=%d Run %d", n, i), s, fresh)
		}
	}
}
