package qsim

import (
	"fmt"

	"qtenon/internal/circuit"
	"qtenon/internal/rng"
)

// Trajectory is one stochastic execution of a circuit with mid-circuit
// measurements: each Measure gate collapses the state and records its
// outcome bit in order.
type Trajectory struct {
	Final *State
	// Bits holds measurement outcomes in gate order.
	Bits []int
	// Qubits holds the measured qubit per outcome, aligned with Bits.
	Qubits []int
}

// RunTrajectory executes a bound circuit with real measurement collapse,
// the semantics needed for feed-forward experiments (mid-circuit
// measurement is the QubiC-2.0-class capability the related-work section
// discusses; Qtenon's .measure segment delivers exactly these bits).
func RunTrajectory(c *circuit.Circuit, src *rng.Stream) (Trajectory, error) {
	if c.NumParams != 0 {
		return Trajectory{}, fmt.Errorf("qsim: circuit has %d unbound parameters", c.NumParams)
	}
	if c.NQubits > MaxQubits {
		return Trajectory{}, fmt.Errorf("qsim: %d qubits exceeds exact limit %d", c.NQubits, MaxQubits)
	}
	if err := c.Validate(); err != nil {
		return Trajectory{}, err
	}
	tr := Trajectory{Final: NewState(c.NQubits)}
	for _, g := range c.Gates {
		if g.Kind == circuit.Measure {
			bit := tr.Final.MeasureQubit(g.Qubit, src)
			tr.Bits = append(tr.Bits, bit)
			tr.Qubits = append(tr.Qubits, g.Qubit)
			continue
		}
		tr.Final.Apply(g)
	}
	return tr, nil
}

// Bit returns the outcome of the i-th measurement.
func (t Trajectory) Bit(i int) int { return t.Bits[i] }
