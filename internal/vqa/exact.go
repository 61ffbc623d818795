package vqa

import (
	"qtenon/internal/circuit"
	"qtenon/internal/pauli"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/tableau"
)

// runExact executes a bound circuit on the statevector simulator.
func runExact(c *circuit.Circuit) (*qsim.State, error) { return qsim.Run(c) }

// exactClifford evaluates a Z-diagonal Hamiltonian on the stabilizer
// tableau when the bound circuit is fully Clifford and every term fits
// the 64-qubit mask window. ok is false when the circuit or Hamiltonian
// is out of the tableau's reach, sending the caller to the dense path.
func exactClifford(c *circuit.Circuit, h *pauli.Hamiltonian) (float64, bool, error) {
	if c.NQubits > tableau.MaxQubits {
		return 0, false, nil
	}
	for _, g := range c.Gates {
		if !tableau.IsClifford(g) {
			return 0, false, nil
		}
	}
	for _, t := range h.Terms {
		if !t.Str.ZBasisOnly() || t.Str.MaxQubit() >= 64 {
			return 0, false, nil
		}
	}
	tb, err := tableau.New(c.NQubits)
	if err != nil {
		return 0, false, nil
	}
	if err := tb.Run(c); err != nil {
		return 0, true, err
	}
	v, err := h.ExpectationTableau(tb)
	return v, true, err
}
