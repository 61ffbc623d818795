// Package quantum models the quantum chip and its analog-digital
// interface. Execution backends share the engine.Simulator interface
// and are chosen per circuit by the method router (internal/route):
//
//   - dense: the statevector simulator (internal/qsim), used up to
//     ExactLimit qubits — this is the paper's "simulator data obtained
//     from Qiskit" role.
//   - clifford: the CHP stabilizer tableau (internal/qsim/tableau),
//     exact for Clifford-only circuits at any width the paper sweeps.
//   - product: a mean-field product-state model for large generic
//     registers (the paper's 64–320-qubit sweeps), exact for
//     single-qubit gates and mean-field for entanglers. It produces
//     parameter-sensitive measurement statistics at O(n) cost,
//     preserving the optimizer traffic patterns that the architecture
//     experiments measure, which depend on shot counts and parameter
//     counts, not on entanglement fidelity. The substitution is
//     documented in DESIGN.md.
//
// Timing is analytic in all backends, exactly as in the paper (§7.1):
// gates take 20/40 ns, measurement 600 ns, and a shot's duration is the
// ASAP critical path of its circuit.
package quantum

import (
	"fmt"
	"math/rand"

	"qtenon/internal/circuit"
	"qtenon/internal/qsim/engine"
	"qtenon/internal/rng"
	"qtenon/internal/route"
	"qtenon/internal/sim"
)

// ExactLimit is the largest register simulated dense-exactly for
// generic (non-Clifford) circuits — the router's DenseLimit.
const ExactLimit = 16

// Execution reports one q_run-style batch.
type Execution struct {
	Outcomes []uint64 // one basis-state index per shot (qubit 0 = bit 0)
	ShotTime sim.Time // critical-path duration of one shot
}

// Chip executes bound circuits and samples measurements, under its
// error model when it has one. Each Execute routes its
// circuit to a simulation method; the per-method simulator arenas are
// recycled across Execute calls so the optimizer's thousands of
// evaluations do not each allocate a fresh state. Execution.Outcomes,
// by contrast, is always freshly allocated: the error model flips its
// bits in place, and the caller owns the slice.
type Chip struct {
	nqubits int
	timing  circuit.Timing
	rng     *rand.Rand
	router  route.Router
	method  route.Method // last method Execute resolved (Auto before any run)
	sims    [route.NumMethods]engine.Simulator

	// noise is the error model; noiseRNG draws its errors and exists
	// only when noise is enabled.
	noise    Noise
	noiseRNG *rand.Rand
}

// NewChip returns a chip over n qubits with the paper's gate timing and
// the default router (dense ≤ ExactLimit, tableau for Clifford circuits,
// product beyond), executing under the given error model; the zero
// Noise is the ideal chip. Errors are realized per shot batch as
// randomly injected Pauli operators (trajectory method), so the exact
// backends stay pure statevectors.
func NewChip(n int, seed int64, noise Noise) (*Chip, error) {
	if n <= 0 {
		return nil, fmt.Errorf("quantum: non-positive qubit count %d", n)
	}
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	chip := &Chip{
		nqubits: n,
		timing:  circuit.DefaultTiming(),
		rng:     rng.New(seed),
		router:  route.Router{DenseLimit: ExactLimit},
		noise:   noise,
	}
	if noise.Enabled() {
		chip.noiseRNG = rng.New(rng.Derive(seed, 0x5eed))
	}
	return chip, nil
}

// Method reports the simulation method the most recent Execute resolved
// to, or route.Auto before the first execution.
func (c *Chip) Method() route.Method { return c.method }

// ForceMethod pins every subsequent Execute to one simulation method;
// route.Auto (the default) restores automatic selection. Execute fails
// when the forced method cannot run the circuit.
func (c *Chip) ForceMethod(m route.Method) { c.router.Force = m }

// Execute runs `shots` repetitions of the bound circuit.
func (c *Chip) Execute(ct *circuit.Circuit, shots int) (Execution, error) {
	if c.noise.Enabled() {
		return c.executeNoisy(ct, shots)
	}
	return c.execute(ct, shots)
}

// execute runs the circuit on the ideal chip.
func (c *Chip) execute(ct *circuit.Circuit, shots int) (Execution, error) {
	if ct.NQubits > c.nqubits {
		return Execution{}, fmt.Errorf("quantum: circuit needs %d qubits, chip has %d", ct.NQubits, c.nqubits)
	}
	if ct.NumParams != 0 {
		return Execution{}, fmt.Errorf("quantum: circuit has unbound parameters")
	}
	if shots <= 0 {
		return Execution{}, fmt.Errorf("quantum: non-positive shot count %d", shots)
	}
	shot := circuit.Duration(ct, c.timing)
	m, _, err := c.router.SelectWidth(ct, c.nqubits)
	if err != nil {
		return Execution{}, err
	}
	sim := c.sims[m]
	if sim == nil || sim.NQubits() != ct.NQubits {
		sim, err = route.NewSimulator(m, ct.NQubits)
		if err != nil {
			return Execution{}, err
		}
		c.sims[m] = sim
	}
	if err := sim.Run(ct); err != nil {
		return Execution{}, err
	}
	c.method = m
	outcomes := sim.Sample(shots, c.rng)
	return Execution{Outcomes: outcomes, ShotTime: shot}, nil
}

// ADI is the analog-digital interface between controller and chip: a
// fixed latency each direction (paper baseline: 100 ns).
type ADI struct {
	LatencyIn  sim.Time // controller → chip (drive)
	LatencyOut sim.Time // chip → controller (readout)
}

// DefaultADI returns the paper's 100 ns per direction.
func DefaultADI() ADI {
	return ADI{LatencyIn: 100 * sim.Nanosecond, LatencyOut: 100 * sim.Nanosecond}
}

// RoundTrip is the total in+out latency added to every shot.
func (a ADI) RoundTrip() sim.Time { return a.LatencyIn + a.LatencyOut }
