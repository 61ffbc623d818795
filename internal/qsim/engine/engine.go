// Package engine defines the Simulator interface every simulation
// method implements — the dense SoA statevector (internal/qsim), the
// CHP stabilizer tableau (internal/qsim/tableau), the mean-field
// product surrogate (internal/qsim/product), and the sharded dense
// statevector (internal/qsim/shard) — so quantum.Chip, backend,
// and vqa can request "a simulator" from the method router
// (internal/route) instead of constructing qsim.State directly
// (DESIGN.md §12).
//
// The adapters are thin: each wraps one concrete engine, normalises the
// Run/Sample/Probabilities contracts (fresh outcome slices, identical
// RNG-stream discipline), and exposes the concrete state through an
// accessor for callers that need engine-specific operations (e.g.
// pauli.Hamiltonian.Expectation on the dense state).
package engine

import (
	"fmt"
	"math/rand"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/product"
	"qtenon/internal/qsim/shard"
	"qtenon/internal/qsim/tableau"
)

// Simulator is the method-agnostic execution surface. All engines share
// the terminal-measurement convention: Apply ignores Measure gates;
// Sample measures every qubit of the current state without mutating it
// between calls. Outcome words carry qubits 0..63 (bit q = qubit q);
// wider registers advance the RNG identically but report the 64-bit
// cost window.
type Simulator interface {
	// NQubits reports the register width.
	NQubits() int
	// Apply executes one bound gate in place.
	Apply(g circuit.Gate)
	// Run resets the simulator and executes a bound circuit.
	Run(c *circuit.Circuit) error
	// Probabilities returns the full 2^n basis distribution (small n only).
	Probabilities() []float64
	// Sample draws shot outcome words from the caller's seeded RNG.
	Sample(shots int, rng *rand.Rand) []uint64
	// ZExpectation returns ⟨Z_q⟩ of the current state.
	ZExpectation(q int) float64
	// Reset restores |0…0⟩ in place.
	Reset()
	// Clone returns an independent copy of the simulator state.
	Clone() Simulator
}

// Dense wraps the SoA statevector; width is capped at qsim.MaxQubits (24).
type Dense struct {
	st *qsim.State
}

// NewDense allocates a dense statevector engine.
func NewDense(n int) (*Dense, error) {
	if n <= 0 || n > qsim.MaxQubits {
		return nil, fmt.Errorf("engine: qubit count %d outside the dense window (0,%d]", n, qsim.MaxQubits)
	}
	return &Dense{st: qsim.NewState(n)}, nil
}

// State exposes the concrete statevector (for pauli expectations and
// qsim-specific entry points).
func (d *Dense) State() *qsim.State { return d.st }

// NQubits implements Simulator.
func (d *Dense) NQubits() int { return d.st.NQubits() }

// Apply implements Simulator.
func (d *Dense) Apply(g circuit.Gate) { d.st.Apply(g) }

// Run implements Simulator via qsim.RunReuse, preserving the dense
// path's exact numerical stream: Reset + fused sweep on the same arena.
func (d *Dense) Run(c *circuit.Circuit) error {
	st, err := qsim.RunReuse(d.st, c)
	if err != nil {
		return err
	}
	d.st = st
	return nil
}

// Probabilities implements Simulator.
func (d *Dense) Probabilities() []float64 { return d.st.Probabilities() }

// Sample implements Simulator.
func (d *Dense) Sample(shots int, rng *rand.Rand) []uint64 { return d.st.Sample(shots, rng) }

// ZExpectation implements Simulator.
func (d *Dense) ZExpectation(q int) float64 { return d.st.ExpectationZ(q) }

// Reset implements Simulator.
func (d *Dense) Reset() { d.st.Reset() }

// Clone implements Simulator.
func (d *Dense) Clone() Simulator { return &Dense{st: d.st.Clone()} }

// Clifford wraps the stabilizer tableau.
type Clifford struct {
	t *tableau.Tableau
}

// NewClifford allocates a tableau engine.
func NewClifford(n int) (*Clifford, error) {
	t, err := tableau.New(n)
	if err != nil {
		return nil, err
	}
	return &Clifford{t: t}, nil
}

// Tableau exposes the concrete tableau (for Z-string expectations).
func (c *Clifford) Tableau() *tableau.Tableau { return c.t }

// NQubits implements Simulator.
func (c *Clifford) NQubits() int { return c.t.NQubits() }

// Apply implements Simulator; panics on non-Clifford gates (the router
// guarantees it is never handed one).
func (c *Clifford) Apply(g circuit.Gate) { c.t.Apply(g) }

// Run implements Simulator.
func (c *Clifford) Run(ct *circuit.Circuit) error { return c.t.Run(ct) }

// Probabilities implements Simulator; values are exactly dyadic.
func (c *Clifford) Probabilities() []float64 { return c.t.Probabilities() }

// Sample implements Simulator.
func (c *Clifford) Sample(shots int, rng *rand.Rand) []uint64 { return c.t.Sample(shots, rng) }

// ZExpectation implements Simulator.
func (c *Clifford) ZExpectation(q int) float64 { return c.t.ZExpectation(q) }

// Reset implements Simulator.
func (c *Clifford) Reset() { c.t.Reset() }

// Clone implements Simulator.
func (c *Clifford) Clone() Simulator { return &Clifford{t: c.t.Clone()} }

// Product wraps the mean-field surrogate.
type Product struct {
	ps *product.State
}

// NewProduct allocates a product-state engine.
func NewProduct(n int) (*Product, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: non-positive qubit count %d", n)
	}
	return &Product{ps: product.New(n)}, nil
}

// ProductState exposes the concrete surrogate.
func (p *Product) ProductState() *product.State { return p.ps }

// NQubits implements Simulator.
func (p *Product) NQubits() int { return p.ps.NQubits() }

// Apply implements Simulator.
func (p *Product) Apply(g circuit.Gate) { p.ps.Apply(g) }

// Run implements Simulator.
func (p *Product) Run(c *circuit.Circuit) error { return p.ps.Run(c) }

// Probabilities implements Simulator.
func (p *Product) Probabilities() []float64 { return p.ps.Probabilities() }

// Sample implements Simulator.
func (p *Product) Sample(shots int, rng *rand.Rand) []uint64 { return p.ps.Sample(shots, rng) }

// ZExpectation implements Simulator.
func (p *Product) ZExpectation(q int) float64 { return p.ps.ZExp(q) }

// Reset implements Simulator.
func (p *Product) Reset() { p.ps.Reset() }

// Clone implements Simulator.
func (p *Product) Clone() Simulator { return &Product{ps: p.ps.Clone()} }

// Sharded wraps the chunked statevector (internal/qsim/shard): dense-
// exact amplitudes past the contiguous engine's allocation wall, capped
// at shard.MaxQubits (28).
type Sharded struct {
	st *shard.State
}

// NewSharded allocates a sharded statevector engine.
func NewSharded(n int) (*Sharded, error) {
	st, err := shard.New(n)
	if err != nil {
		return nil, err
	}
	return &Sharded{st: st}, nil
}

// ShardState exposes the concrete sharded statevector.
func (s *Sharded) ShardState() *shard.State { return s.st }

// NQubits implements Simulator.
func (s *Sharded) NQubits() int { return s.st.NQubits() }

// Apply implements Simulator.
func (s *Sharded) Apply(g circuit.Gate) { s.st.Apply(g) }

// Run implements Simulator. A width mismatch reallocates, mirroring
// qsim.RunReuse; the common chip path always matches and reuses the
// shard arena.
func (s *Sharded) Run(c *circuit.Circuit) error {
	if c.NQubits != s.st.NQubits() {
		st, err := shard.New(c.NQubits)
		if err != nil {
			return err
		}
		s.st = st
	}
	return s.st.Run(c)
}

// Probabilities implements Simulator.
func (s *Sharded) Probabilities() []float64 { return s.st.Probabilities() }

// Sample implements Simulator.
func (s *Sharded) Sample(shots int, rng *rand.Rand) []uint64 { return s.st.Sample(shots, rng) }

// ZExpectation implements Simulator.
func (s *Sharded) ZExpectation(q int) float64 { return s.st.ExpectationZ(q) }

// Reset implements Simulator.
func (s *Sharded) Reset() { s.st.Reset() }

// Clone implements Simulator.
func (s *Sharded) Clone() Simulator { return &Sharded{st: s.st.Clone()} }

// Interface conformance.
var (
	_ Simulator = (*Dense)(nil)
	_ Simulator = (*Clifford)(nil)
	_ Simulator = (*Product)(nil)
	_ Simulator = (*Sharded)(nil)
)
