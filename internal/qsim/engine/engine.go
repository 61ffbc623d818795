// Package engine defines the Simulator interface the simulation methods
// implement — the dense SoA statevector and the sharded dense
// statevector (internal/qsim), the CHP stabilizer tableau
// (internal/qsim/tableau) and the mean-field product surrogate
// (internal/qsim/product) — so quantum.Chip can request "a simulator" from
// the method router (internal/route) instead of constructing one engine
// directly (DESIGN.md §12). It declares exactly the calls the chip makes.
package engine

import (
	"qtenon/internal/circuit"
	"qtenon/internal/rng"
)

// Simulator is the method-agnostic execution surface. All engines share
// the terminal-measurement convention: Run ignores Measure gates, and
// Sample measures every qubit of the current state without mutating it
// between calls. Outcome words carry qubits 0..63 (bit q = qubit q);
// wider registers advance the RNG identically but report the 64-bit
// cost window.
type Simulator interface {
	// NQubits reports the register width.
	NQubits() int
	// Run resets the simulator to |0…0⟩ and executes a bound circuit.
	Run(c *circuit.Circuit) error
	// Sample draws shot outcome words from the caller's seeded source
	// into a freshly allocated slice the caller owns. Production passes
	// a *rng.Stream; tests may pass math/rand's stream of the same seed,
	// which draws the same words.
	Sample(shots int, src rng.Source) []uint64
}
