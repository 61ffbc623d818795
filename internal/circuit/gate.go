// Package circuit defines the quantum circuit intermediate representation
// shared by the whole system: the compiler lowers circuits to .program
// entries, the statevector simulator executes them, the chip timing model
// schedules them, and the VQA workloads build them.
//
// Circuits are parameterized: a gate either carries a fixed angle or
// references a named parameter slot. Binding a parameter vector yields the
// concrete angles; this is the "quantum locality" the paper exploits —
// between optimizer iterations only parameter values change, never the
// circuit structure.
package circuit

import "fmt"

// Kind identifies a gate type. The numeric values double as the 4-bit
// `type` field of a Qtenon .program entry (Table 2), so they must stay
// within 0..15.
type Kind uint8

// The supported gate set. Rotation gates take one angle; fixed gates take
// none. Measure reads out a single qubit in the computational basis.
const (
	I Kind = iota // identity / explicit idle
	X
	Y
	Z
	H
	S
	T
	RX
	RY
	RZ
	CZ  // controlled-Z (symmetric two-qubit)
	CX  // controlled-X (CNOT); Qubit is control, Qubit2 target
	RZZ // exp(-i θ/2 Z⊗Z), the QAOA cost-layer primitive
	Measure
	numKinds
)

var kindNames = [numKinds]string{
	I: "i", X: "x", Y: "y", Z: "z", H: "h", S: "s", T: "t",
	RX: "rx", RY: "ry", RZ: "rz", CZ: "cz", CX: "cx", RZZ: "rzz",
	Measure: "measure",
}

// String returns the lowercase OpenQASM-style mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName maps a mnemonic back to its Kind. ok is false for unknown
// names.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Arity reports how many qubits the gate acts on (1 or 2).
func (k Kind) Arity() int {
	switch k {
	case CZ, CX, RZZ:
		return 2
	default:
		return 1
	}
}

// Parameterized reports whether the gate carries a rotation angle.
func (k Kind) Parameterized() bool {
	switch k {
	case RX, RY, RZ, RZZ:
		return true
	default:
		return false
	}
}

// NoParam marks a gate whose angle is fixed (Theta) rather than bound to a
// parameter slot.
const NoParam = -1

// Gate is one operation in a circuit.
//
// For two-qubit gates Qubit is the first operand (control for CX) and
// Qubit2 the second. For one-qubit gates Qubit2 is unused. Param is the
// index of the parameter slot whose value supplies the angle, or NoParam
// when Theta is the literal angle.
type Gate struct {
	Kind   Kind
	Qubit  int
	Qubit2 int
	Theta  float64
	Param  int
}

// String renders the gate in a compact assembly-like form.
func (g Gate) String() string {
	switch {
	case g.Kind.Arity() == 2 && g.Kind.Parameterized():
		return fmt.Sprintf("%s(%s) q%d,q%d", g.Kind, g.angleString(), g.Qubit, g.Qubit2)
	case g.Kind.Arity() == 2:
		return fmt.Sprintf("%s q%d,q%d", g.Kind, g.Qubit, g.Qubit2)
	case g.Kind.Parameterized():
		return fmt.Sprintf("%s(%s) q%d", g.Kind, g.angleString(), g.Qubit)
	default:
		return fmt.Sprintf("%s q%d", g.Kind, g.Qubit)
	}
}

func (g Gate) angleString() string {
	if g.Param != NoParam {
		return fmt.Sprintf("p%d", g.Param)
	}
	return fmt.Sprintf("%g", g.Theta)
}
