package pauli

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewStrValidation(t *testing.T) {
	if _, err := NewStr(Factor{0, ZAxis}, Factor{0, XAxis}); err == nil {
		t.Error("accepted duplicate qubit")
	}
	if _, err := NewStr(Factor{1, IAxis}); err == nil {
		t.Error("accepted identity factor")
	}
	if _, err := NewStr(Factor{-1, ZAxis}); err == nil {
		t.Error("accepted negative qubit")
	}
	s, err := NewStr(Factor{3, XAxis}, Factor{1, ZAxis})
	if err != nil {
		t.Fatal(err)
	}
	if s.Factors[0].Qubit != 1 || s.Factors[1].Qubit != 3 {
		t.Errorf("factors not sorted: %v", s.Factors)
	}
	if s.String() != "Z1*X3" {
		t.Errorf("String = %q", s.String())
	}
}

func TestStrBasics(t *testing.T) {
	s := ZZ(0, 2)
	if s.Mask() != 0b101 {
		t.Errorf("Mask = %b", s.Mask())
	}
	if s.MaxQubit() != 2 {
		t.Errorf("MaxQubit = %d", s.MaxQubit())
	}
	if !s.ZBasisOnly() {
		t.Error("ZZ not recognized as Z-basis")
	}
	x := MustStr(Factor{1, XAxis})
	if x.ZBasisOnly() {
		t.Error("X recognized as Z-basis")
	}
	if (Str{}).MaxQubit() != -1 {
		t.Error("identity MaxQubit != -1")
	}
	if (Str{}).String() != "I" {
		t.Error("identity String != I")
	}
}

// TestMaskPanicsPastQubit63 requires Mask, and so EstimateDiagonal, to
// panic on a factor no 64-bit outcome word holds: on a 70-qubit
// Hamiltonian, Z(68) would otherwise drop out of its mask and estimate
// as +1 whatever the outcomes.
func TestMaskPanicsPastQubit63(t *testing.T) {
	h := NewHamiltonian(70)
	h.MustAdd(1, Z(68))
	for name, f := range map[string]func(){
		"Mask":             func() { Z(68).Mask() },
		"EstimateDiagonal": func() { h.EstimateDiagonal([]uint64{^uint64(0)}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Z68") {
					t.Errorf("%s: recovered %v, want a panic naming Z68", name, r)
				}
			}()
			f()
		}()
	}
}

func TestMaskSign(t *testing.T) {
	mask := ZZ(0, 1).Mask()
	tests := []struct {
		outcome uint64
		want    float64
	}{
		{0b00, 1}, {0b01, -1}, {0b10, -1}, {0b11, 1}, {0b111, 1}, {0b101, -1},
	}
	for _, tt := range tests {
		if got := maskSign(mask, tt.outcome); got != tt.want {
			t.Errorf("maskSign(%b) = %v, want %v", tt.outcome, got, tt.want)
		}
	}
}

func TestExpectationAgainstKnownStates(t *testing.T) {
	// |+⟩: ⟨X⟩=1, ⟨Z⟩=0. |1⟩: ⟨Z⟩=-1.
	plus, _ := qsim.Run(circuit.NewBuilder(1).H(0).MustBuild())
	hx := NewHamiltonian(1)
	hx.MustAdd(1, MustStr(Factor{0, XAxis}))
	if e := hx.Expectation(plus); !approx(e, 1, 1e-9) {
		t.Errorf("⟨+|X|+⟩ = %v", e)
	}
	hz := NewHamiltonian(1)
	hz.MustAdd(1, Z(0))
	if e := hz.Expectation(plus); !approx(e, 0, 1e-9) {
		t.Errorf("⟨+|Z|+⟩ = %v", e)
	}
	one, _ := qsim.Run(circuit.NewBuilder(1).X(0).MustBuild())
	if e := hz.Expectation(one); !approx(e, -1, 1e-9) {
		t.Errorf("⟨1|Z|1⟩ = %v", e)
	}
	// Y eigenstate: RX(-π/2)|0⟩ = |+i⟩ with ⟨Y⟩=1.
	plusI, _ := qsim.Run(circuit.NewBuilder(1).RX(0, -math.Pi/2).MustBuild())
	hy := NewHamiltonian(1)
	hy.MustAdd(1, MustStr(Factor{0, YAxis}))
	if e := hy.Expectation(plusI); !approx(e, 1, 1e-9) {
		t.Errorf("⟨+i|Y|+i⟩ = %v", e)
	}
}

func TestH2GroundEnergy(t *testing.T) {
	// Exact diagonalization by scanning the 2-qubit variational family
	// RY(θ0)⊗RY(θ1)·CX is not guaranteed to reach the exact ground state,
	// so check against brute-force eigen decomposition via dense matvec.
	h := H2Equilibrium()
	min := bruteForceGround(h)
	// Published value for this parameterization ≈ -1.851 Hartree.
	if !approx(min, -1.851, 2e-3) {
		t.Errorf("H2 ground energy = %v, want ≈ -1.851", min)
	}
}

// bruteForceGround finds the minimum eigenvalue by power iteration on
// (cI - H) using dense matrices built from the Hamiltonian action.
func bruteForceGround(h *Hamiltonian) float64 {
	n := h.NQubits
	dim := 1 << n
	// Build dense H by applying to basis vectors through qsim states.
	mat := make([][]complex128, dim)
	for col := 0; col < dim; col++ {
		vec := make([]complex128, dim)
		vec[col] = 1
		mat[col] = applyHamiltonian(h, vec)
	}
	// Power iteration on shifted matrix.
	shift := 10.0
	v := make([]complex128, dim)
	for i := range v {
		v[i] = complex(1/math.Sqrt(float64(dim)), 0)
	}
	var lam float64
	for iter := 0; iter < 3000; iter++ {
		w := make([]complex128, dim)
		for col := 0; col < dim; col++ {
			for row := 0; row < dim; row++ {
				w[row] += (complex(shift, 0)*unit(row, col) - mat[col][row]) * v[col]
			}
		}
		var norm float64
		for _, x := range w {
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		for i := range w {
			w[i] /= complex(norm, 0)
		}
		v = w
		lam = norm
	}
	return shift - lam
}

func unit(r, c int) complex128 {
	if r == c {
		return 1
	}
	return 0
}

// applyHamiltonian computes H·vec with explicit Pauli action.
func applyHamiltonian(h *Hamiltonian, vec []complex128) []complex128 {
	out := make([]complex128, len(vec))
	for i, a := range vec {
		out[i] += complex(h.Offset, 0) * a
	}
	for _, t := range h.Terms {
		for i, a := range vec {
			if a == 0 {
				continue
			}
			j, phase := i, complex(1, 0)
			for _, f := range t.Str.Factors {
				bit := (j >> f.Qubit) & 1
				switch f.Axis {
				case ZAxis:
					if bit == 1 {
						phase = -phase
					}
				case XAxis:
					j ^= 1 << f.Qubit
				case YAxis:
					if bit == 0 {
						phase *= complex(0, 1)
					} else {
						phase *= complex(0, -1)
					}
					j ^= 1 << f.Qubit
				}
			}
			out[j] += complex(t.Coeff, 0) * phase * a
		}
	}
	return out
}

func TestEstimateFromCountsConvergence(t *testing.T) {
	// Sampled estimate of ⟨ZZ⟩ on a Bell state converges to 1.
	st, _ := qsim.Run(circuit.NewBuilder(2).H(0).CX(0, 1).MustBuild())
	rng := rand.New(rand.NewSource(2))
	outcomes := st.Sample(5000, rng)
	if e := EstimateFromCounts(ZZ(0, 1), outcomes); !approx(e, 1, 1e-9) {
		t.Errorf("sampled ⟨ZZ⟩ = %v", e)
	}
	if e := EstimateFromCounts(Z(0), outcomes); math.Abs(e) > 0.05 {
		t.Errorf("sampled ⟨Z0⟩ = %v, want ≈0", e)
	}
	if e := EstimateFromCounts(Z(0), nil); e != 0 {
		t.Errorf("empty estimate = %v", e)
	}
}

func TestGroupTermsQubitwiseCompatible(t *testing.T) {
	h := H2Equilibrium()
	groups := h.GroupTerms()
	// Z0, Z1, Z0Z1 group together; X0X1 and Y0Y1 each need their own basis.
	if len(groups) != 3 {
		t.Fatalf("H2 groups = %d, want 3", len(groups))
	}
	if len(groups[0].TermIdx) != 3 {
		t.Errorf("Z group has %d terms, want 3", len(groups[0].TermIdx))
	}
	total := 0
	for _, g := range groups {
		total += len(g.TermIdx)
	}
	if total != len(h.Terms) {
		t.Errorf("groups cover %d terms, want %d", total, len(h.Terms))
	}
}

func TestGroupedEstimationMatchesExact(t *testing.T) {
	h := H2Equilibrium()
	ansatz := circuit.NewBuilder(2).RY(0, 0.7).RY(1, -0.4).CX(0, 1).MustBuild()
	st, _ := qsim.Run(ansatz)
	exact := h.Expectation(st)

	rng := rand.New(rand.NewSource(4))
	groups := h.GroupTerms()
	outcomes := make([][]uint64, len(groups))
	for gi, g := range groups {
		c := ansatz.Clone()
		c.Gates = append(c.Gates, g.BasisChange()...)
		gs, err := qsim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[gi] = gs.Sample(40000, rng)
	}
	est := h.EstimateFromGroupCounts(groups, outcomes)
	if !approx(est, exact, 0.02) {
		t.Errorf("grouped estimate %v vs exact %v", est, exact)
	}
}

func TestMaxCutHamiltonian(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}} // triangle: max cut 2
	h := MaxCut(3, edges, 1)
	// Cost of assignment 0b001 (vertex 0 separated): cut = 2 → C = -2.
	st, _ := qsim.Run(circuit.NewBuilder(3).X(0).MustBuild())
	if e := h.Expectation(st); !approx(e, -2, 1e-9) {
		t.Errorf("triangle cost(001) = %v, want -2", e)
	}
	// Uniform assignment cuts nothing.
	st0, _ := qsim.Run(circuit.NewBuilder(3).Z(0).MustBuild()) // still |000⟩
	if e := h.Expectation(st0); !approx(e, 0, 1e-9) {
		t.Errorf("triangle cost(000) = %v, want 0", e)
	}
	if CutValue(edges, 0b001) != 2 {
		t.Errorf("CutValue(001) = %d", CutValue(edges, 0b001))
	}
	if CutValue(edges, 0) != 0 {
		t.Errorf("CutValue(000) = %d", CutValue(edges, 0))
	}
}

func TestMolecularSurrogateStructure(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		h := MolecularSurrogate(n)
		if h.NQubits != n {
			t.Errorf("NQubits = %d", h.NQubits)
		}
		// n Z terms + banded ZZ + 2(n-1) hopping terms.
		zz := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n && b <= a+3; b++ {
				zz++
			}
		}
		want := n + zz + 2*(n-1)
		if len(h.Terms) != want {
			t.Errorf("n=%d: %d terms, want %d", n, len(h.Terms), want)
		}
		// Deterministic: same call twice gives identical terms.
		h2 := MolecularSurrogate(n)
		for i := range h.Terms {
			if h.Terms[i].Coeff != h2.Terms[i].Coeff || h.Terms[i].Str.String() != h2.Terms[i].Str.String() {
				t.Fatalf("n=%d: nondeterministic term %d", n, i)
			}
		}
	}
}

func TestHamiltonianAddValidation(t *testing.T) {
	h := NewHamiltonian(2)
	if err := h.Add(1, Z(5)); err == nil {
		t.Error("Add accepted out-of-range term")
	}
	if err := h.Add(2.5, Str{}); err != nil {
		t.Errorf("Add identity: %v", err)
	}
	if h.Offset != 2.5 {
		t.Errorf("identity folded into Offset = %v", h.Offset)
	}
}
