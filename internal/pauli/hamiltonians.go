package pauli

// Reference Hamiltonians for the VQE workload. H2 in the STO-3G basis
// under the Jordan-Wigner/parity mapping reduces to a well-known 2-qubit
// operator (O'Malley et al., PRX 2016); its coefficients at the
// equilibrium bond length 0.7414 Å are tabulated below. Larger molecule
// surrogates are generated with a deterministic structure that matches
// the term-count scaling of molecular Hamiltonians, since the timing
// experiments only depend on term grouping and parameter counts.

// H2Equilibrium returns the 2-qubit H2 Hamiltonian (Hartree units) at the
// equilibrium geometry. Its exact ground-state energy is approximately
// -1.851 + nuclear repulsion handled in Offset form here; the raw
// electronic operator below has ground energy ≈ -1.85106 before adding
// the identity coefficient.
func H2Equilibrium() *Hamiltonian {
	h := NewHamiltonian(2)
	h.Offset = -0.4804
	h.MustAdd(0.3435, Z(0))
	h.MustAdd(-0.4347, Z(1))
	h.MustAdd(0.5716, ZZ(0, 1))
	h.MustAdd(0.0910, MustStr(Factor{0, XAxis}, Factor{1, XAxis}))
	h.MustAdd(0.0910, MustStr(Factor{0, YAxis}, Factor{1, YAxis}))
	return h
}

// MolecularSurrogate returns a synthetic molecular-style Hamiltonian over
// n qubits (n = number of spin-orbitals): Z and ZZ "diagonal" terms for
// every site/pair within a banded interaction window, plus XX+YY hopping
// terms between neighbours. Coefficients decay with distance, giving a
// non-trivial optimization landscape; the construction is deterministic
// so results are reproducible.
func MolecularSurrogate(n int) *Hamiltonian {
	h := NewHamiltonian(n)
	h.Offset = -float64(n) * 0.25
	for q := 0; q < n; q++ {
		// Alternating on-site energies, as in a dimerized chain.
		coeff := 0.4
		if q%2 == 1 {
			coeff = -0.3
		}
		h.MustAdd(coeff, Z(q))
	}
	const band = 3
	for a := 0; a < n; a++ {
		for b := a + 1; b < n && b <= a+band; b++ {
			dist := float64(b - a)
			h.MustAdd(0.25/dist, ZZ(a, b))
		}
	}
	for q := 0; q+1 < n; q++ {
		h.MustAdd(0.18, MustStr(Factor{q, XAxis}, Factor{q + 1, XAxis}))
		h.MustAdd(0.18, MustStr(Factor{q, YAxis}, Factor{q + 1, YAxis}))
	}
	return h
}

// MaxCut returns the QAOA MaxCut cost Hamiltonian for the given edge
// list: C = Σ_(a,b) w/2 (Z_a Z_b - 1), whose minimum corresponds to the
// maximum cut. Each edge contributes offset -w/2 and a +w/2 ZZ term.
func MaxCut(n int, edges [][2]int, weight float64) *Hamiltonian {
	h := NewHamiltonian(n)
	for _, e := range edges {
		h.Offset -= float64(weight / 2)
		h.MustAdd(weight/2, ZZ(e[0], e[1]))
	}
	return h
}

// CutValue evaluates the cut size of a bitstring assignment for the edge
// list (number of edges crossing the partition).
func CutValue(edges [][2]int, assignment uint64) int {
	cut := 0
	for _, e := range edges {
		if (assignment>>e[0])&1 != (assignment>>e[1])&1 {
			cut++
		}
	}
	return cut
}
