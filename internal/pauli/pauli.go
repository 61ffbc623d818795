// Package pauli implements Pauli-string observables and Hamiltonians —
// the cost operators of the paper's three workloads. QAOA's MaxCut cost
// is a sum of ZZ terms, VQE minimizes a molecular Hamiltonian of general
// Pauli strings, and QNN losses reduce to Z expectations.
//
// The package provides exact expectations against a statevector (used to
// validate at small scale) and shot-based estimation from measurement
// counts, including the basis-change circuits needed to measure X/Y
// factors — the full path a real hybrid stack uses.
package pauli

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/tableau"
)

// Axis is a single-qubit Pauli factor.
type Axis uint8

// Pauli factors. IAxis factors are implicit: strings only store
// non-identity factors.
const (
	IAxis Axis = iota
	XAxis
	YAxis
	ZAxis
)

// String returns "I", "X", "Y" or "Z".
func (a Axis) String() string { return [...]string{"I", "X", "Y", "Z"}[a] }

// Factor is one non-identity Pauli factor acting on a qubit.
type Factor struct {
	Qubit int
	Axis  Axis
}

// Str is a Pauli string: a tensor product of non-identity factors on
// distinct qubits, in ascending qubit order.
type Str struct {
	Factors []Factor
}

// NewStr builds a Pauli string from factors, sorting by qubit and
// rejecting duplicates or identity factors.
func NewStr(factors ...Factor) (Str, error) {
	fs := append([]Factor(nil), factors...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Qubit < fs[j].Qubit })
	for i, f := range fs {
		if f.Axis == IAxis {
			return Str{}, fmt.Errorf("pauli: identity factor on qubit %d", f.Qubit)
		}
		if f.Qubit < 0 {
			return Str{}, fmt.Errorf("pauli: negative qubit %d", f.Qubit)
		}
		if i > 0 && fs[i-1].Qubit == f.Qubit {
			return Str{}, fmt.Errorf("pauli: duplicate qubit %d", f.Qubit)
		}
	}
	return Str{Factors: fs}, nil
}

// MustStr is NewStr for literals in trusted code.
func MustStr(factors ...Factor) Str {
	s, err := NewStr(factors...)
	if err != nil {
		panic(err)
	}
	return s
}

// Z returns the single-qubit Z string on q.
func Z(q int) Str { return MustStr(Factor{q, ZAxis}) }

// ZZ returns the two-qubit Z⊗Z string on a and b.
func ZZ(a, b int) Str { return MustStr(Factor{a, ZAxis}, Factor{b, ZAxis}) }

// String renders e.g. "X0*Z3".
func (s Str) String() string {
	if len(s.Factors) == 0 {
		return "I"
	}
	parts := make([]string, len(s.Factors))
	for i, f := range s.Factors {
		parts[i] = fmt.Sprintf("%s%d", f.Axis, f.Qubit)
	}
	return strings.Join(parts, "*")
}

// MaxQubit reports the highest qubit index used, or -1 for the identity.
func (s Str) MaxQubit() int {
	if len(s.Factors) == 0 {
		return -1
	}
	return s.Factors[len(s.Factors)-1].Qubit
}

// Mask returns the bitmask of qubits the string acts on. It panics on a
// factor at qubit 64 or above: no mask or outcome word holds that qubit,
// and a factor dropped from the mask would make every estimate read the
// term as +1 there.
func (s Str) Mask() uint64 {
	var m uint64
	for _, f := range s.Factors {
		if f.Qubit >= 64 {
			panic(fmt.Sprintf("pauli: %s acts on qubit %d, outside the 64-qubit mask", s.String(), f.Qubit))
		}
		m |= 1 << f.Qubit
	}
	return m
}

// ZBasisOnly reports whether every factor is Z (measurable directly in
// the computational basis).
func (s Str) ZBasisOnly() bool {
	for _, f := range s.Factors {
		if f.Axis != ZAxis {
			return false
		}
	}
	return true
}

// BasisChange returns the gates that rotate each X/Y factor of s into the
// Z basis, to be appended before measurement: H for X, S†H (here RX(π/2))
// for Y.
func (s Str) BasisChange() []circuit.Gate {
	var gates []circuit.Gate
	for _, f := range s.Factors {
		switch f.Axis {
		case XAxis:
			gates = append(gates, circuit.Gate{Kind: circuit.H, Qubit: f.Qubit, Param: circuit.NoParam})
		case YAxis:
			// RX(π/2) maps Y eigenbasis onto Z eigenbasis.
			gates = append(gates, circuit.Gate{Kind: circuit.RX, Qubit: f.Qubit, Theta: circuit.Pi / 2, Param: circuit.NoParam})
		}
	}
	return gates
}

// maskSign returns the ±1 eigenvalue that basis-state outcome (after
// any basis change) contributes to a string with support mask: the
// parity of the measured bits on the support. The hot loops hoist
// Mask() out of their per-outcome/per-amplitude iteration.
func maskSign(mask, outcome uint64) float64 {
	if bits.OnesCount64(outcome&mask)&1 == 1 {
		return -1
	}
	return 1
}

// Term is a weighted Pauli string.
type Term struct {
	Coeff float64
	Str   Str
}

// Hamiltonian is a real-coefficient sum of Pauli strings, plus an
// identity offset.
type Hamiltonian struct {
	NQubits int
	Offset  float64
	Terms   []Term
}

// NewHamiltonian returns an empty Hamiltonian over n qubits.
func NewHamiltonian(n int) *Hamiltonian { return &Hamiltonian{NQubits: n} }

// Add appends a term, validating its support.
func (h *Hamiltonian) Add(coeff float64, s Str) error {
	if s.MaxQubit() >= h.NQubits {
		return fmt.Errorf("pauli: term %v exceeds %d qubits", s, h.NQubits)
	}
	if len(s.Factors) == 0 {
		h.Offset += coeff
		return nil
	}
	h.Terms = append(h.Terms, Term{Coeff: coeff, Str: s})
	return nil
}

// MustAdd is Add that panics on error.
func (h *Hamiltonian) MustAdd(coeff float64, s Str) {
	if err := h.Add(coeff, s); err != nil {
		panic(err)
	}
}

// Expectation computes ⟨ψ|H|ψ⟩ exactly against a statevector.
func (h *Hamiltonian) Expectation(st *qsim.State) float64 {
	if st.NQubits() < h.NQubits {
		panic("pauli: state narrower than Hamiltonian")
	}
	e := h.Offset
	for _, t := range h.Terms {
		e += float64(t.Coeff * expectStr(st, t.Str))
	}
	return e
}

// ExpectationTableau computes ⟨ψ|H|ψ⟩ exactly against a stabilizer
// state. Every term must be Z-diagonal and supported on the first 64
// qubits (the tableau's Z-string mask window); term expectations on a
// stabilizer state are exactly −1, 0, or +1, so the result is an exact
// small integer combination of the coefficients.
func (h *Hamiltonian) ExpectationTableau(t *tableau.Tableau) (float64, error) {
	if t.NQubits() < h.NQubits {
		return 0, fmt.Errorf("pauli: tableau narrower than Hamiltonian (%d < %d)", t.NQubits(), h.NQubits)
	}
	e := h.Offset
	for _, term := range h.Terms {
		if !term.Str.ZBasisOnly() {
			return 0, fmt.Errorf("pauli: tableau expectation needs Z-diagonal terms, have %v", term.Str)
		}
		if term.Str.MaxQubit() >= 64 {
			return 0, fmt.Errorf("pauli: term %v outside the 64-qubit mask window", term.Str)
		}
		e += float64(term.Coeff * t.ZExpectationMask(term.Str.Mask()))
	}
	return e, nil
}

// expectStr computes ⟨ψ|P|ψ⟩ for one Pauli string by applying the basis
// change to a clone and reading Z-parity expectations. It reads the
// structure-of-arrays amplitudes directly, so no complex128 view is
// materialized.
func expectStr(st *qsim.State, s Str) float64 {
	work := st
	if !s.ZBasisOnly() {
		work = st.Clone()
		for _, g := range s.BasisChange() {
			work.Apply(g)
		}
	}
	mask := s.Mask()
	re, im := work.ReIm()
	var e float64
	for i := range re {
		p := float64(re[i]*re[i]) + float64(im[i]*im[i])
		e += float64(p * maskSign(mask, uint64(i)))
	}
	return e
}

// termChunk is the number of strings whose odd-parity counts one pass
// over the outcomes gathers. Their masks and counts live in stack
// arrays of this length, so an estimate allocates nothing. It covers
// the 64-qubit VQE cost's 250 terms, so that cost transposes each block
// of 64 shots once.
const termChunk = 256

// oddCounts sets odd[i] to the number of outcomes whose bits under
// masks[i] have odd parity, for each i < len(masks). It copies each block
// of 64 outcome words into a stack array and transposes it as a 64×64
// bit matrix, so word q holds qubit q's bit of each of the block's shots.
// A mask's odd count for the block is then the popcount of the XOR of
// its qubits' words. The last block is padded with zero rows, which add
// no parity.
func oddCounts(outcomes, masks []uint64, odd []int) {
	odd = odd[:len(masks)]
	clear(odd)
	var blk [64]uint64
	for lo := 0; lo < len(outcomes); lo += 64 {
		clear(blk[copy(blk[:], outcomes[lo:]):])
		transpose64(&blk)
		for i, m := range masks {
			var x uint64
			for ; m != 0; m &= m - 1 {
				x ^= blk[bits.TrailingZeros64(m)&63]
			}
			odd[i] += bits.OnesCount64(x)
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of word i
// moves to bit i of word j. Each round swaps the off-diagonal blocks of
// every 2j×2j tile (Warren, Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(1<<32 - 1)
	for j := 32; j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 64; k += 2 * j {
			for i := k; i < k+j; i++ {
				t := (a[i]>>j ^ a[i+j]) & m
				a[i+j] ^= t
				a[i] ^= t << j
			}
		}
	}
}

// estimate is ⟨P⟩ over shots outcomes of which odd have odd parity on
// P's support: (shots − 2·odd)/shots, or 0 without outcomes. It equals
// the mean of the shots' ±1 eigenvalues bit for bit, since every partial
// sum of ±1 terms is an integer below 2⁵³ and so exact.
func estimate(odd, shots int) float64 {
	if shots == 0 {
		return 0
	}
	return float64(shots-2*odd) / float64(shots)
}

// addEstimates returns e plus coeff·⟨P⟩ for the terms term(0), …,
// term(n−1), added in that order, with ⟨P⟩ estimated from outcomes
// measured in the term's basis.
func addEstimates(e float64, n int, term func(i int) *Term, outcomes []uint64) float64 {
	var masks [termChunk]uint64
	var odd [termChunk]int
	for lo := 0; lo < n; lo += termChunk {
		c := min(n-lo, termChunk)
		for i := range c {
			masks[i] = term(lo + i).Str.Mask()
		}
		oddCounts(outcomes, masks[:c], odd[:c])
		for i := range c {
			e += float64(term(lo+i).Coeff * estimate(odd[i], len(outcomes)))
		}
	}
	return e
}

// EstimateDiagonal estimates a Z-diagonal Hamiltonian from
// computational-basis outcomes: the offset plus each term's coefficient
// times its estimate, added in term order. It returns 0 without
// outcomes.
func (h *Hamiltonian) EstimateDiagonal(outcomes []uint64) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	return addEstimates(h.Offset, len(h.Terms), func(i int) *Term { return &h.Terms[i] }, outcomes)
}

// Group is a set of term indices measurable simultaneously (their strings
// are qubit-wise compatible: on every shared qubit the axes agree).
type Group struct {
	TermIdx []int
	// Basis holds, per qubit, the axis measured (IAxis where unused).
	Basis []Axis
}

// GroupTerms partitions the Hamiltonian's terms into qubit-wise
// commuting measurement groups using a first-fit heuristic. Each group
// costs one circuit execution batch, so fewer groups means fewer
// quantum-host rounds — the quantity the paper's communication model
// depends on.
func (h *Hamiltonian) GroupTerms() []Group {
	var groups []Group
next:
	for i, t := range h.Terms {
		for gi := range groups {
			g := &groups[gi]
			ok := true
			for _, f := range t.Str.Factors {
				if g.Basis[f.Qubit] != IAxis && g.Basis[f.Qubit] != f.Axis {
					ok = false
					break
				}
			}
			if ok {
				for _, f := range t.Str.Factors {
					g.Basis[f.Qubit] = f.Axis
				}
				g.TermIdx = append(g.TermIdx, i)
				continue next
			}
		}
		g := Group{Basis: make([]Axis, h.NQubits)}
		for _, f := range t.Str.Factors {
			g.Basis[f.Qubit] = f.Axis
		}
		g.TermIdx = append(g.TermIdx, i)
		groups = append(groups, g)
	}
	return groups
}

// BasisChange returns the pre-measurement rotation gates for a group.
func (g Group) BasisChange() []circuit.Gate {
	var gates []circuit.Gate
	for q, a := range g.Basis {
		switch a {
		case XAxis:
			gates = append(gates, circuit.Gate{Kind: circuit.H, Qubit: q, Param: circuit.NoParam})
		case YAxis:
			gates = append(gates, circuit.Gate{Kind: circuit.RX, Qubit: q, Theta: circuit.Pi / 2, Param: circuit.NoParam})
		}
	}
	return gates
}

// EstimateFromGroupCounts estimates the full Hamiltonian from per-group
// outcome samples (outcomes[gi] sampled after groups[gi].BasisChange()).
func (h *Hamiltonian) EstimateFromGroupCounts(groups []Group, outcomes [][]uint64) float64 {
	e := h.Offset
	for gi, g := range groups {
		term := func(i int) *Term { return &h.Terms[g.TermIdx[i]] }
		e = addEstimates(e, len(g.TermIdx), term, outcomes[gi])
	}
	return e
}
