package quantum

import (
	"fmt"

	"qtenon/internal/circuit"
)

// Noise configures the NISQ error model applied during execution:
// depolarizing errors after each gate and symmetric readout bit flips.
// The zero value is noiseless. The architecture results do not depend on
// noise (the paper evaluates timing), but the workloads run on NISQ
// devices by definition (§2.1), and shot statistics under noise exercise
// the same post-processing paths with degraded signal — useful for
// validating optimizer robustness.
type Noise struct {
	// Depolar1Q and Depolar2Q are per-gate depolarizing probabilities.
	Depolar1Q float64
	Depolar2Q float64
	// Readout is the per-qubit measurement bit-flip probability.
	Readout float64
}

// Validate checks probability ranges.
func (n Noise) Validate() error {
	for _, p := range []float64{n.Depolar1Q, n.Depolar2Q, n.Readout} {
		if p < 0 || p > 1 {
			return fmt.Errorf("quantum: noise probability %v outside [0,1]", p)
		}
	}
	return nil
}

// Enabled reports whether any channel is active.
func (n Noise) Enabled() bool { return n.Depolar1Q > 0 || n.Depolar2Q > 0 || n.Readout > 0 }

// TypicalNISQ returns error rates representative of current
// superconducting hardware: 0.1% single-qubit, 1% two-qubit, 2% readout.
func TypicalNISQ() Noise {
	return Noise{Depolar1Q: 0.001, Depolar2Q: 0.01, Readout: 0.02}
}

// executeNoisy runs shots under the error model. Each shot batch samples
// one Pauli-error trajectory (adequate for expectation-level statistics
// at NISQ error rates) and readout errors are applied per shot, per
// qubit.
func (c *Chip) executeNoisy(ct *circuit.Circuit, shots int) (Execution, error) {
	noisy := c.injectTrajectory(ct)
	ex, err := c.execute(noisy, shots)
	if err != nil {
		return Execution{}, err
	}
	// Recompute the shot time from the clean circuit: injected error
	// gates are instantaneous physical processes, not scheduled pulses.
	ex.ShotTime = circuit.Duration(ct, c.timing)
	if c.noise.Readout > 0 {
		n := min(ct.NQubits, 64)
		for i := range ex.Outcomes {
			for q := 0; q < n; q++ {
				if c.noiseRNG.Float64() < c.noise.Readout {
					ex.Outcomes[i] ^= 1 << q
				}
			}
		}
	}
	return ex, nil
}

// injectTrajectory returns a copy of ct with sampled Pauli errors
// appended after faulty gates.
func (c *Chip) injectTrajectory(ct *circuit.Circuit) *circuit.Circuit {
	out := &circuit.Circuit{NQubits: ct.NQubits, NumParams: ct.NumParams}
	paulis := []circuit.Kind{circuit.X, circuit.Y, circuit.Z}
	inject := func(q int) {
		k := paulis[c.noiseRNG.Intn(len(paulis))]
		out.Gates = append(out.Gates, circuit.Gate{Kind: k, Qubit: q, Param: circuit.NoParam})
	}
	for _, g := range ct.Gates {
		out.Gates = append(out.Gates, g)
		switch {
		case g.Kind == circuit.Measure:
		case g.Kind.Arity() == 2:
			if c.noiseRNG.Float64() < c.noise.Depolar2Q {
				inject(g.Qubit)
			}
			if c.noiseRNG.Float64() < c.noise.Depolar2Q {
				inject(g.Qubit2)
			}
		default:
			if c.noiseRNG.Float64() < c.noise.Depolar1Q {
				inject(g.Qubit)
			}
		}
	}
	return out
}
