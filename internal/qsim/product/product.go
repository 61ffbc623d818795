// Package product implements the mean-field product-state surrogate:
// each qubit holds an exact 2-component state; two-qubit gates couple
// qubits through their partner's Z expectation (a mean-field decoupling
// of the interaction). It is exact for single-qubit gates and mean-field
// for entanglers, producing parameter-sensitive measurement statistics
// at O(n) cost — the paper's 64–320-qubit sweeps run on this engine,
// preserving the optimizer traffic patterns that the architecture
// experiments measure (shot counts and parameter counts, not
// entanglement fidelity). The substitution is documented in DESIGN.md.
//
// It implements qsim/engine.Simulator alongside the dense and sharded
// statevectors and the Clifford tableau.
package product

import (
	"fmt"
	"math"

	"qtenon/internal/circuit"
	"qtenon/internal/rng"
)

// State is the mean-field surrogate over n qubits.
type State struct {
	a, b []complex128 // per-qubit amplitudes of |0⟩ and |1⟩
}

// New returns |0…0⟩.
func New(n int) *State {
	ps := &State{a: make([]complex128, n), b: make([]complex128, n)}
	for i := range ps.a {
		ps.a[i] = 1
	}
	return ps
}

// NQubits reports the register width.
func (ps *State) NQubits() int { return len(ps.a) }

// Reset returns the product state to |0…0⟩ in place, keeping its
// storage.
func (ps *State) Reset() {
	for i := range ps.a {
		ps.a[i] = 1
		ps.b[i] = 0
	}
}

// P1 returns qubit q's |1⟩ probability.
func (ps *State) P1(q int) float64 {
	re, im := real(ps.b[q]), imag(ps.b[q])
	return float64(re*re) + float64(im*im)
}

// ZExp returns ⟨Z_q⟩ = 1 − 2·P1.
func (ps *State) ZExp(q int) float64 { return 1 - float64(2*ps.P1(q)) }

func (ps *State) apply1Q(q int, u00, u01, u10, u11 complex128) {
	a, b := ps.a[q], ps.b[q]
	ps.a[q] = mul(u00, a) + mul(u01, b)
	ps.b[q] = mul(u10, a) + mul(u11, b)
}

// mul is x*y as Go's complex128 multiply is written (xr·yr − xi·yi,
// xr·yi + xi·yr), with each product rounded before the sum so that no
// GOARCH fuses it (DESIGN.md §11.2).
func mul(x, y complex128) complex128 {
	xr, xi, yr, yi := real(x), imag(x), real(y), imag(y)
	return complex(float64(xr*yr)-float64(xi*yi), float64(xr*yi)+float64(xi*yr))
}

// expI returns e^{ix}, bit for bit what cmplx.Exp(complex(0, x))
// returns: with a zero real part it scales math.Sincos(x) by Exp(0) = 1.
func expI(x float64) complex128 {
	s, c := math.Sincos(x)
	return complex(c, s)
}

// rz takes both phases from one Sincos: Sincos(−x) is (−sin x, cos x)
// bit for bit for every finite x, since Sincos strips the sign first
// (DESIGN.md §11.2).
func (ps *State) rz(q int, theta float64) {
	s, c := math.Sincos(theta / 2)
	ps.apply1Q(q, complex(c, -s), 0, 0, complex(c, s))
}

func (ps *State) rx(q int, theta float64) {
	s, c := math.Sincos(theta / 2)
	ps.apply1Q(q, complex(c, 0), complex(0, -s), complex(0, -s), complex(c, 0))
}

// Apply executes one gate under the mean-field rules.
func (ps *State) Apply(g circuit.Gate) {
	invSqrt2 := complex(1/math.Sqrt2, 0)
	switch g.Kind {
	case circuit.I, circuit.Measure:
	case circuit.X:
		ps.apply1Q(g.Qubit, 0, 1, 1, 0)
	case circuit.Y:
		ps.apply1Q(g.Qubit, 0, complex(0, -1), complex(0, 1), 0)
	case circuit.Z:
		ps.apply1Q(g.Qubit, 1, 0, 0, -1)
	case circuit.H:
		ps.apply1Q(g.Qubit, invSqrt2, invSqrt2, invSqrt2, -invSqrt2)
	case circuit.S:
		ps.apply1Q(g.Qubit, 1, 0, 0, complex(0, 1))
	case circuit.T:
		ps.apply1Q(g.Qubit, 1, 0, 0, expI(math.Pi/4))
	case circuit.RX:
		ps.rx(g.Qubit, g.Theta)
	case circuit.RY:
		s, c := math.Sincos(g.Theta / 2)
		ps.apply1Q(g.Qubit, complex(c, 0), complex(-s, 0), complex(s, 0), complex(c, 0))
	case circuit.RZ:
		ps.rz(g.Qubit, g.Theta)
	case circuit.RZZ:
		// Mean-field: e^{-iθ/2 Z⊗Z} → RZ(θ·⟨Z_b⟩) on a and RZ(θ·⟨Z_a⟩) on b.
		za, zb := ps.ZExp(g.Qubit), ps.ZExp(g.Qubit2)
		ps.rz(g.Qubit, g.Theta*zb)
		ps.rz(g.Qubit2, g.Theta*za)
	case circuit.CZ:
		// CZ = e^{iπ/4(Z⊗Z − Z⊗I − I⊗Z + I)}: mean-field phase kick scaled
		// by the partner's |1⟩ population.
		pa, pb := ps.P1(g.Qubit), ps.P1(g.Qubit2)
		ps.rz(g.Qubit, math.Pi*pb)
		ps.rz(g.Qubit2, math.Pi*pa)
	case circuit.CX:
		// Mean-field CNOT: rotate the target by π weighted by the
		// control's |1⟩ population.
		ps.rx(g.Qubit2, math.Pi*ps.P1(g.Qubit))
	default:
		panic(fmt.Sprintf("product: unsupported gate %v in surrogate", g.Kind))
	}
}

// Run resets the state and applies every gate of a bound circuit.
func (ps *State) Run(c *circuit.Circuit) error {
	if c.NumParams != 0 {
		return fmt.Errorf("product: circuit has unbound parameters")
	}
	if c.NQubits != len(ps.a) {
		return fmt.Errorf("product: circuit needs %d qubits, state has %d", c.NQubits, len(ps.a))
	}
	ps.Reset()
	for _, g := range c.Gates {
		ps.Apply(g)
	}
	return nil
}

// Sample draws independent per-qubit outcomes. Outcome words carry the
// first 64 qubits; wider registers sample all qubits (the stream
// advances identically) but report the 64-qubit cost window — see
// DESIGN.md on >64-qubit cost evaluation.
//
// The draws are those of src.Float64() < P1(q), shot-major and
// qubit-minor, made with integers: each draw is an Int63 x, drawn again
// while x ≥ rng.Redraw (where Float64 would round to 1 and draw again),
// and the bit is set when x < threshold(P1(q)), branch-free. Each shot
// reads its first min(n, 64) draws as one rng.Below block, which
// compares them as the stream draws them; a block that holds a draw at
// or above rng.Redraw (about 2⁻⁵⁴ per draw) is redone with scalar
// redraws. DESIGN.md §14 gives the argument;
// TestSampleMatchesFloat64Draw checks the words.
func (ps *State) Sample(shots int, src rng.Source) []uint64 {
	n := len(ps.a)
	var k [64]int64
	ks := k[:min(n, 64)]
	for q := range ks {
		ks[q] = threshold(ps.P1(q))
	}
	out := make([]uint64, shots)
	var x [64]int64
	for s := range out {
		v, ok := rng.Below(src, ks, &x)
		if !ok {
			v = redo(x[:len(ks)], ks, src)
		}
		// Qubits past the word still advance the stream: read them in
		// blocks, one more draw for each one Float64 would discard.
		for rest := n - len(ks); rest > 0; {
			xs := x[:min(rest, 64)]
			rng.Read63(src, xs)
			for _, xq := range xs {
				if xq < rng.Redraw {
					rest--
				}
			}
		}
		out[s] = v
	}
	return out
}

// redo returns the outcome word of a shot whose block xs holds a draw
// at or above rng.Redraw: it takes the block's draws in order, skips
// each such draw, and reads one more from src for every draw it
// skipped.
func redo(xs, ks []int64, src rng.Source) uint64 {
	var v uint64
	j := 0
	for q, kq := range ks {
		x := int64(rng.Redraw)
		for x >= rng.Redraw {
			if j < len(xs) {
				x = xs[j]
				j++
			} else {
				x = src.Int63()
			}
		}
		v |= uint64(x-kq) >> 63 << q
	}
	return v
}

// threshold returns the least x in [0, rng.Redraw] with
// !(float64(x)/2⁶³ < p), so that for every accepted draw x,
// float64(x)/2⁶³ < p exactly when x < threshold(p). Rounding to float64
// is monotone, so the predicate holds on a prefix and bisection finds
// its end exactly. p ≤ 0 and NaN give 0 (never set); p ≥ 1 gives
// rng.Redraw (always set).
func threshold(p float64) int64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return rng.Redraw
	}
	// p·2⁶³ is exact and below 2⁶³, and rounding below 2⁶³ moves a value
	// by at most 512, so the end lies within 1024 of c: 11 steps find it.
	// The upper end is clamped before adding, since c can be 2⁶³−1024.
	c := int64(p * (1 << 63))
	lo, hi := max(c-1024, 0), min(c, rng.Redraw-1024)+1024
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
