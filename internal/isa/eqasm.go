package isa

import (
	"fmt"

	"qtenon/internal/circuit"
)

// This file implements a concrete code generator for the decoupled
// baseline's quantum-dedicated ISA, in the style of eQASM (Fu et al.,
// HPCA'19): every gate statically encodes its operand qubits, explicit
// timing instructions (qwait) sequence the schedule, and measurements
// need a fetch (fmr) per qubit. The generated text is what the baseline
// re-ships to the FPGA every iteration; its length is the Table 1
// instruction count, and EQASMCount is validated against it.

// QuantumProgram is generated quantum-dedicated code.
type QuantumProgram struct {
	Instructions []string
}

// Len reports the instruction count.
func (p QuantumProgram) Len() int { return len(p.Instructions) }

// GenerateEQASM lowers a bound circuit to eQASM-style code.
//
// Layout per the eQASM model: a prologue initializing each qubit, one
// (qwait, op) pair per scheduled gate layer transition, two-qubit gates
// carry both qubit indices, and an epilogue measuring and fetching each
// measured qubit.
func GenerateEQASM(c *circuit.Circuit, t circuit.Timing) (QuantumProgram, error) {
	if c.NumParams != 0 {
		return QuantumProgram{}, fmt.Errorf("isa: eQASM requires a bound circuit")
	}
	if err := c.Validate(); err != nil {
		return QuantumProgram{}, err
	}
	var p QuantumProgram
	emit := func(format string, args ...any) {
		p.Instructions = append(p.Instructions, fmt.Sprintf(format, args...))
	}
	// Prologue: qubit initialization (one instruction per qubit, plus a
	// wait for the reset to settle).
	for q := 0; q < c.NQubits; q++ {
		emit("init q%d", q)
	}
	emit("qwait %d", 200)

	sched := circuit.ScheduleASAP(c, t)
	last := int64(0)
	var fetches []string
	for i, g := range c.Gates {
		start := int64(sched.Start[i] / 1000) // ns granularity timing field
		if start > last {
			emit("qwait %d", start-last)
			last = start
		}
		switch {
		case g.Kind == circuit.Measure:
			emit("measz q%d", g.Qubit)
			fetches = append(fetches, fmt.Sprintf("fmr r%d, q%d", g.Qubit%32, g.Qubit))
		case g.Kind.Arity() == 2:
			emit("%s q%d, q%d", g.Kind, g.Qubit, g.Qubit2)
		case g.Kind.Parameterized():
			emit("%s q%d, %d", g.Kind, g.Qubit, angleSteps(g.Theta))
		default:
			emit("%s q%d", g.Kind, g.Qubit)
		}
	}
	// Epilogue: wait out the measurement window and fetch results.
	emit("qwait %d", int64(t.Measure/1000))
	p.Instructions = append(p.Instructions, fetches...)
	emit("stop")
	return p, nil
}

// angleSteps quantizes an angle the way eQASM-class ISAs do: an integer
// number of ~0.0015-rad microcode steps. The quotient, a product once
// compiled, is rounded before the half is added (DESIGN.md §11.2).
func angleSteps(theta float64) int64 {
	const step = 1.0 / 4096
	return int64(float64(theta/step) + 0.5)
}

// GenerateHiSEPQ lowers a bound circuit to HiSEP-Q-style code, which
// improves on eQASM with denser qubit addressing: same-layer identical
// single-qubit operations share one instruction with a qubit bitmask,
// and measurement fetch is a single block transfer.
func GenerateHiSEPQ(c *circuit.Circuit, t circuit.Timing) (QuantumProgram, error) {
	if c.NumParams != 0 {
		return QuantumProgram{}, fmt.Errorf("isa: HiSEP-Q requires a bound circuit")
	}
	if err := c.Validate(); err != nil {
		return QuantumProgram{}, err
	}
	var p QuantumProgram
	emit := func(format string, args ...any) {
		p.Instructions = append(p.Instructions, fmt.Sprintf(format, args...))
	}
	emit("initall 0x%x", uint64(1)<<min(c.NQubits, 63)-1)

	sched := circuit.ScheduleASAP(c, t)
	// Group gates by (start, kind, angle) — those share an instruction
	// when single-qubit.
	type key struct {
		start int64
		kind  circuit.Kind
		angle int64
	}
	groups := map[key][]int{}
	var order []key
	for i, g := range c.Gates {
		k := key{start: int64(sched.Start[i]), kind: g.Kind, angle: angleSteps(g.Theta)}
		if g.Kind.Arity() == 2 {
			// Two-qubit gates stay individual (pairs cannot share masks).
			k.angle = int64(i) << 20
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	measured := false
	for _, k := range order {
		idxs := groups[k]
		g := c.Gates[idxs[0]]
		switch {
		case g.Kind == circuit.Measure:
			var mask uint64
			for _, i := range idxs {
				q := c.Gates[i].Qubit
				if q < 64 {
					mask |= 1 << q
				}
			}
			emit("measz 0x%x", mask)
			measured = true
		case g.Kind.Arity() == 2:
			emit("%s q%d, q%d", g.Kind, g.Qubit, g.Qubit2)
		default:
			var mask uint64
			for _, i := range idxs {
				q := c.Gates[i].Qubit
				if q < 64 {
					mask |= 1 << q
				}
			}
			emit("%s 0x%x, %d", g.Kind, mask, k.angle)
		}
	}
	if measured {
		emit("fetchall r0")
	}
	emit("stop")
	return p, nil
}
