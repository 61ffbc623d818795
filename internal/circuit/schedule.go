package circuit

import "qtenon/internal/sim"

// Timing holds the physical gate durations used to schedule a circuit on
// the quantum chip. Defaults follow §7.1 of the paper: 20 ns single-qubit
// gates, 40 ns two-qubit gates, 600 ns measurement (pulse plus an
// equivalent result-processing window is folded into Measure).
type Timing struct {
	OneQubit sim.Time
	TwoQubit sim.Time
	Measure  sim.Time
}

// DefaultTiming returns the paper's gate times.
func DefaultTiming() Timing {
	return Timing{
		OneQubit: 20 * sim.Nanosecond,
		TwoQubit: 40 * sim.Nanosecond,
		Measure:  600 * sim.Nanosecond,
	}
}

// GateDuration reports how long one gate occupies its qubits.
func (t Timing) GateDuration(k Kind) sim.Time {
	switch {
	case k == Measure:
		return t.Measure
	case k.Arity() == 2:
		return t.TwoQubit
	default:
		return t.OneQubit
	}
}

// Schedule is an ASAP (as-soon-as-possible) schedule of a circuit: each
// gate starts as soon as all its operand qubits are free. This mirrors how
// the timing controller issues pulses from per-qubit timing queues.
type Schedule struct {
	Start    []sim.Time // per gate, aligned with Circuit.Gates
	Duration sim.Time   // end of the last gate (the critical path)
	Depth    int        // number of gate "layers" on the critical path
}

// ScheduleASAP computes the ASAP schedule of c under timing t.
func ScheduleASAP(c *Circuit, t Timing) Schedule {
	free := make([]sim.Time, c.NQubits) // time each qubit becomes free
	depth := make([]int, c.NQubits)
	s := Schedule{Start: make([]sim.Time, len(c.Gates))}
	for i, g := range c.Gates {
		start := free[g.Qubit]
		d := depth[g.Qubit]
		if g.Kind.Arity() == 2 {
			if free[g.Qubit2] > start {
				start = free[g.Qubit2]
			}
			if depth[g.Qubit2] > d {
				d = depth[g.Qubit2]
			}
		}
		dur := t.GateDuration(g.Kind)
		end := start + dur
		s.Start[i] = start
		free[g.Qubit] = end
		depth[g.Qubit] = d + 1
		if g.Kind.Arity() == 2 {
			free[g.Qubit2] = end
			depth[g.Qubit2] = d + 1
		}
		if end > s.Duration {
			s.Duration = end
		}
		if d+1 > s.Depth {
			s.Depth = d + 1
		}
	}
	return s
}

// Duration reports the critical-path duration of c under t, the
// Duration of ScheduleASAP(c, t), without building the schedule: it
// walks the gates keeping only each qubit's free time, on the stack for
// up to 64 qubits.
func Duration(c *Circuit, t Timing) sim.Time {
	var buf [64]sim.Time
	var free []sim.Time
	if c.NQubits <= len(buf) {
		free = buf[:c.NQubits]
	} else {
		free = make([]sim.Time, c.NQubits)
	}
	var end sim.Time
	for _, g := range c.Gates {
		start := free[g.Qubit]
		two := g.Kind.Arity() == 2
		if two {
			start = max(start, free[g.Qubit2])
		}
		done := start + t.GateDuration(g.Kind)
		free[g.Qubit] = done
		if two {
			free[g.Qubit2] = done
		}
		end = max(end, done)
	}
	return end
}
