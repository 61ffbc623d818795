// Package tableau implements a CHP-style stabilizer simulator
// (Aaronson & Gottesman, "Improved simulation of stabilizer circuits",
// Phys. Rev. A 70, 052328): the state of n qubits under Clifford gates
// is tracked as 2n Pauli generators — n destabilizers and n
// stabilizers — each a row of bit-packed X and Z columns plus a sign
// bit. Gates conjugate the generators in O(n) word operations and
// measurement costs O(n²/64), so Clifford circuits that are impossible
// on the 2^n dense statevector (qsim.MaxQubits = 24) run in microseconds
// at hundreds of qubits.
//
// Supported exactly: I, X, Y, Z, H, S, CX, CZ, and the rotations
// RX/RY/RZ/RZZ whenever the bound angle is a multiple of π/2 (within
// Tolerance) — the router (internal/route) only sends circuits here
// when every gate passes IsClifford. Measurement follows the CHP
// branching rule: deterministic outcomes are read off the tableau
// without consuming randomness; genuinely random outcomes draw one
// bit from the caller's seeded source, so runs are reproducible per seed
// exactly like the dense engine (DESIGN.md §12).
package tableau

import (
	"fmt"
	"math"
	"math/bits"

	"qtenon/internal/circuit"
	"qtenon/internal/rng"
)

// MaxQubits bounds the register width. The tableau needs (2n+1)·2n bits
// plus signs — 4096 qubits is ~4 MiB, far past anything the paper
// sweeps (320 qubits).
const MaxQubits = 4096

// MaxProbQubits bounds Probabilities, which materialises the full 2^n
// distribution like the dense engine's view.
const MaxProbQubits = 20

// Tolerance is the absolute angle slack within which a rotation counts
// as a Clifford multiple of π/2. Angles produced by π/2-arithmetic
// (QAOA schedules, graph-state constructions) land within 1e-15; 1e-9
// absorbs float noise without ever misclassifying a T gate (π/4 is
// ~0.78 away from the lattice).
const Tolerance = 1e-9

// Tableau is the bit-packed generator matrix. Rows 0..n-1 are
// destabilizers, rows n..2n-1 stabilizers, row 2n the rowsum scratch.
// Row i's X (Z) bits live in x[i·w : (i+1)·w] (z[...]), qubit q at word
// q/64 bit q%64; sign bits are packed in r.
type Tableau struct {
	n, w int // qubits, 64-bit words per row
	x, z []uint64
	r    []uint64 // (2n+1)-bit sign set, bit i = row i's phase (−1)^r

	// sample is the per-shot working copy Sample collapses so the
	// retained state stays pure between Execute calls; lazily built,
	// excluded from Clone.
	sample *Tableau
}

// New returns the |0…0⟩ tableau: destabilizer i = X_i, stabilizer i = Z_i.
func New(n int) (*Tableau, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tableau: non-positive qubit count %d", n)
	}
	if n > MaxQubits {
		return nil, fmt.Errorf("tableau: %d qubits exceeds limit %d", n, MaxQubits)
	}
	w := (n + 63) / 64
	t := &Tableau{
		n: n,
		w: w,
		x: make([]uint64, (2*n+1)*w),
		z: make([]uint64, (2*n+1)*w),
		r: make([]uint64, (2*n+1+63)/64),
	}
	t.Reset()
	return t, nil
}

// NQubits reports the register width.
func (t *Tableau) NQubits() int { return t.n }

// Reset restores |0…0⟩ in place, keeping storage.
func (t *Tableau) Reset() {
	for i := range t.x {
		t.x[i] = 0
	}
	for i := range t.z {
		t.z[i] = 0
	}
	for i := range t.r {
		t.r[i] = 0
	}
	for q := 0; q < t.n; q++ {
		t.x[q*t.w+q>>6] |= 1 << (uint(q) & 63)       // destabilizer q = X_q
		t.z[(t.n+q)*t.w+q>>6] |= 1 << (uint(q) & 63) // stabilizer q = Z_q
	}
}

// Clone returns an independent copy (scratch excluded).
func (t *Tableau) Clone() *Tableau {
	cp := &Tableau{
		n: t.n,
		w: t.w,
		x: make([]uint64, len(t.x)),
		z: make([]uint64, len(t.z)),
		r: make([]uint64, len(t.r)),
	}
	copy(cp.x, t.x)
	copy(cp.z, t.z)
	copy(cp.r, t.r)
	return cp
}

// copyFrom overwrites t with src's generator content; the two tableaux
// must have identical width.
func (t *Tableau) copyFrom(src *Tableau) {
	copy(t.x, src.x)
	copy(t.z, src.z)
	copy(t.r, src.r)
}

func (t *Tableau) sign(i int) uint64 { return t.r[i>>6] >> (uint(i) & 63) & 1 }
func (t *Tableau) flipSign(i int)    { t.r[i>>6] ^= 1 << (uint(i) & 63) }
func (t *Tableau) setSign(i int, v uint64) {
	t.r[i>>6] = t.r[i>>6]&^(1<<(uint(i)&63)) | v<<(uint(i)&63)
}

// H applies a Hadamard on q: X↔Z per row, sign flips where both set.
func (t *Tableau) H(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		xw, zw := &t.x[i*t.w+wq], &t.z[i*t.w+wq]
		xb, zb := *xw&m, *zw&m
		if xb != 0 && zb != 0 {
			t.flipSign(i)
		}
		if (xb != 0) != (zb != 0) {
			*xw ^= m
			*zw ^= m
		}
	}
}

// S applies the phase gate on q: Z ^= X, sign flips where both set.
func (t *Tableau) S(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		xw, zw := t.x[i*t.w+wq], &t.z[i*t.w+wq]
		if xw&m != 0 {
			if *zw&m != 0 {
				t.flipSign(i)
			}
			*zw ^= m
		}
	}
}

// Sdg applies S† = S·Z on q.
func (t *Tableau) Sdg(q int) { t.S(q); t.Z(q) }

// X applies a Pauli X on q: sign flips where Z set.
func (t *Tableau) X(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i*t.w+wq]&m != 0 {
			t.flipSign(i)
		}
	}
}

// Z applies a Pauli Z on q: sign flips where X set.
func (t *Tableau) Z(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i*t.w+wq]&m != 0 {
			t.flipSign(i)
		}
	}
}

// Y applies a Pauli Y on q: sign flips where exactly one of X/Z set.
func (t *Tableau) Y(q int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < 2*t.n; i++ {
		if (t.x[i*t.w+wq]&m != 0) != (t.z[i*t.w+wq]&m != 0) {
			t.flipSign(i)
		}
	}
}

// CX applies a controlled-X with control a, target b.
func (t *Tableau) CX(a, b int) {
	wa, ma := a>>6, uint64(1)<<(uint(a)&63)
	wb, mb := b>>6, uint64(1)<<(uint(b)&63)
	for i := 0; i < 2*t.n; i++ {
		row := i * t.w
		xa, za := t.x[row+wa]&ma != 0, t.z[row+wa]&ma != 0
		xb, zb := t.x[row+wb]&mb != 0, t.z[row+wb]&mb != 0
		// r ^= x_a·z_b·(x_b ⊕ z_a ⊕ 1)
		if xa && zb && xb == za {
			t.flipSign(i)
		}
		if xa {
			t.x[row+wb] ^= mb
		}
		if zb {
			t.z[row+wa] ^= ma
		}
	}
}

// CZ applies a controlled-Z via H(b)·CX(a,b)·H(b).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CX(a, b)
	t.H(b)
}

// CliffordAngle reports whether theta is a multiple of π/2 within
// Tolerance, returning the multiple normalised to {0,1,2,3}. The
// multiple's product is rounded before the difference, so that no
// GOARCH fuses the two (DESIGN.md §11.2).
func CliffordAngle(theta float64) (k int, ok bool) {
	q := math.Round(theta / (math.Pi / 2))
	if math.Abs(theta-float64(q*(math.Pi/2))) > Tolerance {
		return 0, false
	}
	return int(math.Mod(math.Mod(q, 4)+4, 4)), true
}

// IsClifford reports whether a single bound gate is exactly simulable on
// the tableau. Unbound rotations (Param set) are conservatively
// non-Clifford: their angle is unknown until Bind.
func IsClifford(g circuit.Gate) bool {
	switch g.Kind {
	case circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S,
		circuit.CX, circuit.CZ, circuit.Measure:
		return true
	case circuit.RX, circuit.RY, circuit.RZ, circuit.RZZ:
		if g.Param != circuit.NoParam {
			return false
		}
		_, ok := CliffordAngle(g.Theta)
		return ok
	default: // T and anything future
		return false
	}
}

// rz applies RZ(k·π/2) = S^k up to global phase.
func (t *Tableau) rz(q, k int) {
	for ; k > 0; k-- {
		t.S(q)
	}
}

// Apply executes one bound gate, decomposing π/2-multiple rotations into
// H/S/CZ sequences. Measure gates are ignored (terminal-measurement
// convention, as in qsim.State.Apply); use MeasureQubit or Sample for
// outcomes. Apply panics on a non-Clifford gate — callers route through
// IsClifford first.
func (t *Tableau) Apply(g circuit.Gate) {
	switch g.Kind {
	case circuit.I, circuit.Measure:
	case circuit.X:
		t.X(g.Qubit)
	case circuit.Y:
		t.Y(g.Qubit)
	case circuit.Z:
		t.Z(g.Qubit)
	case circuit.H:
		t.H(g.Qubit)
	case circuit.S:
		t.S(g.Qubit)
	case circuit.CX:
		t.CX(g.Qubit, g.Qubit2)
	case circuit.CZ:
		t.CZ(g.Qubit, g.Qubit2)
	case circuit.RZ:
		k, ok := CliffordAngle(g.Theta)
		if !ok {
			panic(fmt.Sprintf("tableau: non-Clifford RZ(%g)", g.Theta))
		}
		t.rz(g.Qubit, k)
	case circuit.RX:
		// RX(θ) = H·RZ(θ)·H.
		k, ok := CliffordAngle(g.Theta)
		if !ok {
			panic(fmt.Sprintf("tableau: non-Clifford RX(%g)", g.Theta))
		}
		t.H(g.Qubit)
		t.rz(g.Qubit, k)
		t.H(g.Qubit)
	case circuit.RY:
		// RY(θ) = S·RX(θ)·S† (verified on RY(π/2) = (1/√2)[[1,-1],[1,1]]).
		k, ok := CliffordAngle(g.Theta)
		if !ok {
			panic(fmt.Sprintf("tableau: non-Clifford RY(%g)", g.Theta))
		}
		t.Sdg(g.Qubit)
		t.H(g.Qubit)
		t.rz(g.Qubit, k)
		t.H(g.Qubit)
		t.S(g.Qubit)
	case circuit.RZZ:
		// RZZ(π/2) ∝ (S⊗S)·CZ; k applications for k·π/2. All factors are
		// diagonal, so ordering is irrelevant.
		k, ok := CliffordAngle(g.Theta)
		if !ok {
			panic(fmt.Sprintf("tableau: non-Clifford RZZ(%g)", g.Theta))
		}
		for ; k > 0; k-- {
			t.S(g.Qubit)
			t.S(g.Qubit2)
			t.CZ(g.Qubit, g.Qubit2)
		}
	default:
		panic(fmt.Sprintf("tableau: unsupported gate %v", g.Kind))
	}
}

// Run resets the tableau and applies every gate of a bound circuit,
// rejecting non-Clifford gates with an error instead of a panic.
func (t *Tableau) Run(c *circuit.Circuit) error {
	if c.NumParams != 0 {
		return fmt.Errorf("tableau: circuit has unbound parameters")
	}
	if c.NQubits != t.n {
		return fmt.Errorf("tableau: circuit needs %d qubits, tableau has %d", c.NQubits, t.n)
	}
	for _, g := range c.Gates {
		if !IsClifford(g) {
			return fmt.Errorf("tableau: non-Clifford gate %v", g.Kind)
		}
	}
	t.Reset()
	for _, g := range c.Gates {
		t.Apply(g)
	}
	return nil
}

// rowsum left-multiplies row h by row i (h ← i·h) with exact phase
// tracking: the power of i contributed by each qubit position is
// accumulated mod 4 via bit-masked popcounts (the branch-free form of
// CHP's per-column g function).
func (t *Tableau) rowsum(h, i int) {
	rh, ri := h*t.w, i*t.w
	g := 0
	for k := 0; k < t.w; k++ {
		x1, z1 := t.x[ri+k], t.z[ri+k]
		x2, z2 := t.x[rh+k], t.z[rh+k]
		ymask := x1 & z1  // row i has Y here
		xmask := x1 &^ z1 // row i has X here
		zmask := z1 &^ x1 // row i has Z here
		// g = +1 where (Y,Z-only-in-h-missing-x)… per CHP Table: for each
		// qubit, g(x1,z1,x2,z2) ∈ {−1,0,+1}; sum the ±1 positions.
		plus := ymask&z2&^x2 | xmask&z2&x2 | zmask&x2&^z2
		minus := ymask&x2&^z2 | xmask&z2&^x2 | zmask&x2&z2
		g += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		t.x[rh+k] = x1 ^ x2
		t.z[rh+k] = z1 ^ z2
	}
	total := 2*int(t.sign(h)) + 2*int(t.sign(i)) + g
	if v := ((total % 4) + 4) % 4; v == 2 {
		t.setSign(h, 1)
	} else {
		t.setSign(h, 0)
	}
}

// zeroRow clears row i.
func (t *Tableau) zeroRow(i int) {
	base := i * t.w
	for k := 0; k < t.w; k++ {
		t.x[base+k] = 0
		t.z[base+k] = 0
	}
	t.setSign(i, 0)
}

// copyRow copies row src into row dst (including sign).
func (t *Tableau) copyRow(dst, src int) {
	d, s := dst*t.w, src*t.w
	copy(t.x[d:d+t.w], t.x[s:s+t.w])
	copy(t.z[d:d+t.w], t.z[s:s+t.w])
	t.setSign(dst, t.sign(src))
}

// randomStabilizer returns the index (in 0..n-1) of a stabilizer with an
// X bit at qubit q, or -1 when measurement of q is deterministic.
func (t *Tableau) randomStabilizer(q int) int {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < t.n; i++ {
		if t.x[(t.n+i)*t.w+wq]&m != 0 {
			return i
		}
	}
	return -1
}

// deterministicOutcome computes the outcome of measuring q when no
// stabilizer anticommutes with Z_q: Z_q is then a product of stabilizers
// selected by the destabilizers' X bits at q, accumulated in the scratch
// row. The tableau is not modified outside the scratch row.
func (t *Tableau) deterministicOutcome(q int) int {
	scratch := 2 * t.n
	t.zeroRow(scratch)
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	for i := 0; i < t.n; i++ {
		if t.x[i*t.w+wq]&m != 0 {
			t.rowsum(scratch, t.n+i)
		}
	}
	return int(t.sign(scratch))
}

// collapse forces qubit q to `outcome` through the random-measurement
// branch: stabilizer p (which anticommutes with Z_q) becomes Z_q with
// the outcome's sign, its old value moving to the destabilizer slot, and
// every other anticommuting row is multiplied by it first.
func (t *Tableau) collapse(q, p, outcome int) {
	wq, m := q>>6, uint64(1)<<(uint(q)&63)
	ps := t.n + p // stabilizer row index of p
	for i := 0; i < 2*t.n; i++ {
		if i != ps && t.x[i*t.w+wq]&m != 0 {
			t.rowsum(i, ps)
		}
	}
	t.copyRow(p, ps) // old stabilizer becomes destabilizer p
	t.zeroRow(ps)
	t.z[ps*t.w+wq] |= m
	t.setSign(ps, uint64(outcome))
}

// MeasureQubit measures qubit q in the computational basis, collapsing
// the state. Deterministic outcomes consume no randomness; random
// outcomes draw exactly one bit from src — mid-circuit measurement is
// therefore seed-reproducible.
func (t *Tableau) MeasureQubit(q int, src rng.Source) int {
	p := t.randomStabilizer(q)
	if p < 0 {
		return t.deterministicOutcome(q)
	}
	outcome := int(src.Int63() & 1)
	t.collapse(q, p, outcome)
	return outcome
}

// ZExpectationMask returns the expectation of the Z-string over the
// qubits in mask (bit q ⇒ Z_q), covering the first 64 qubits — the
// pauli cost window. Stabilizer-state values are exactly {−1, 0, +1}.
func (t *Tableau) ZExpectationMask(mask uint64) float64 {
	if mask == 0 {
		return 1
	}
	// If any stabilizer anticommutes with the Z-string (odd overlap of
	// its X support with mask), the expectation is exactly 0.
	for i := 0; i < t.n; i++ {
		if bits.OnesCount64(t.x[(t.n+i)*t.w]&mask)%2 == 1 {
			return 0
		}
	}
	// Otherwise the string is ± a product of stabilizers, selected by the
	// destabilizers with odd overlap; accumulate it in the scratch row
	// and read the sign.
	scratch := 2 * t.n
	t.zeroRow(scratch)
	for i := 0; i < t.n; i++ {
		if bits.OnesCount64(t.x[i*t.w]&mask)%2 == 1 {
			t.rowsum(scratch, t.n+i)
		}
	}
	return 1 - 2*float64(t.sign(scratch))
}

// Sample draws `shots` outcome words, measuring every qubit of a fresh
// working copy per shot (qubit 0 = bit 0; qubits ≥ 64 are measured —
// advancing the stream identically for any register width — but fall
// outside the 64-bit outcome window, like the other engines).
func (t *Tableau) Sample(shots int, src rng.Source) []uint64 {
	out := make([]uint64, shots)
	return t.AppendSample(out[:0], shots, src)
}

// AppendSample appends `shots` outcome words to dst and returns it.
func (t *Tableau) AppendSample(dst []uint64, shots int, src rng.Source) []uint64 {
	wc := t.sample
	if wc == nil || wc.n != t.n {
		wc = &Tableau{
			n: t.n,
			w: t.w,
			x: make([]uint64, len(t.x)),
			z: make([]uint64, len(t.z)),
			r: make([]uint64, len(t.r)),
		}
		t.sample = wc
	}
	for s := 0; s < shots; s++ {
		wc.copyFrom(t)
		var v uint64
		for q := 0; q < t.n; q++ {
			bit := wc.MeasureQubit(q, src)
			if q < 64 && bit == 1 {
				v |= 1 << uint(q)
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// Probabilities returns the full 2^n computational-basis distribution.
// Stabilizer-state probabilities are exactly dyadic — each nonzero
// entry is 2^-s for the number s of random branches on its path — so
// the returned values are exact binary floats, not 1e-12-rounded
// approximations. Panics above MaxProbQubits (the dense engines share
// the same kind of cap).
func (t *Tableau) Probabilities() []float64 {
	if t.n > MaxProbQubits {
		panic(fmt.Sprintf("tableau: Probabilities on %d qubits exceeds limit %d", t.n, MaxProbQubits))
	}
	p := make([]float64, 1<<uint(t.n))
	t.Clone().appendProbs(p, 0, 0, 1)
	return p
}

// appendProbs walks the measurement tree qubit by qubit: deterministic
// qubits extend the path at full weight, random qubits split the weight
// exactly in half per branch. The receiver is consumed (collapsed).
func (t *Tableau) appendProbs(p []float64, q int, idx uint64, weight float64) {
	if q == t.n {
		p[idx] = weight
		return
	}
	if pr := t.randomStabilizer(q); pr < 0 {
		out := t.deterministicOutcome(q)
		t.appendProbs(p, q+1, idx|uint64(out)<<uint(q), weight)
		return
	}
	zero := t.Clone()
	zero.collapse(q, zero.randomStabilizer(q), 0)
	zero.appendProbs(p, q+1, idx, weight/2)
	t.collapse(q, t.randomStabilizer(q), 1)
	t.appendProbs(p, q+1, idx|1<<uint(q), weight/2)
}
