package circuit

import (
	"fmt"
	"math"
)

// Circuit is an ordered list of gates over a fixed qubit register, plus
// the number of parameter slots the gates may reference.
//
// A Circuit is a value-ish type: Builders produce them, and consumers
// treat them as immutable. Clone before mutating a shared circuit.
type Circuit struct {
	NQubits int
	Gates   []Gate
	// NumParams is the size of the parameter vector expected by Bind and
	// Angle. Parameter indices in gates must be < NumParams.
	NumParams int
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: non-positive qubit count %d", n))
	}
	return &Circuit{NQubits: n}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NQubits: c.NQubits, NumParams: c.NumParams}
	out.Gates = append([]Gate(nil), c.Gates...)
	return out
}

// Validate checks qubit and parameter indices; it returns the first
// violation found.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if int(g.Kind) >= int(numKinds) {
			return fmt.Errorf("circuit: gate %d has invalid kind %d", i, g.Kind)
		}
		if g.Qubit < 0 || g.Qubit >= c.NQubits {
			return fmt.Errorf("circuit: gate %d (%s) qubit %d out of range [0,%d)", i, g.Kind, g.Qubit, c.NQubits)
		}
		if g.Kind.Arity() == 2 {
			if g.Qubit2 < 0 || g.Qubit2 >= c.NQubits {
				return fmt.Errorf("circuit: gate %d (%s) qubit2 %d out of range", i, g.Kind, g.Qubit2)
			}
			if g.Qubit2 == g.Qubit {
				return fmt.Errorf("circuit: gate %d (%s) uses the same qubit twice", i, g.Kind)
			}
		}
		if g.Param != NoParam {
			if !g.Kind.Parameterized() {
				return fmt.Errorf("circuit: gate %d (%s) cannot take a parameter", i, g.Kind)
			}
			if g.Param < 0 || g.Param >= c.NumParams {
				return fmt.Errorf("circuit: gate %d references parameter %d, have %d", i, g.Param, c.NumParams)
			}
		}
	}
	return nil
}

// Bind returns a copy of the circuit with every parameter reference
// replaced by its concrete angle from params.
func (c *Circuit) Bind(params []float64) *Circuit {
	return c.BindInto(nil, params)
}

// BindInto is Bind over recycled storage: when dst is non-nil its gate
// slice's capacity is reused instead of allocating a fresh copy, and dst
// itself is returned. The system models call this once per cost
// evaluation with a dedicated scratch circuit, so steady-state binding
// allocates nothing. dst must not alias c, and its previous contents are
// destroyed.
func (c *Circuit) BindInto(dst *Circuit, params []float64) *Circuit {
	if len(params) != c.NumParams {
		panic(fmt.Sprintf("circuit: Bind with %d params, want %d", len(params), c.NumParams))
	}
	if dst == nil {
		dst = &Circuit{}
	}
	dst.NQubits = c.NQubits
	dst.NumParams = 0
	dst.Gates = append(dst.Gates[:0], c.Gates...)
	for i := range dst.Gates {
		g := &dst.Gates[i]
		if g.Param != NoParam {
			g.Theta = params[g.Param]
			g.Param = NoParam
		}
	}
	return dst
}

// Counts summarizes the circuit's gate population.
type Counts struct {
	OneQubit int // non-measure single-qubit gates
	TwoQubit int
	Measure  int
	Param    int // gates referencing a parameter slot
	PerQubit []int
}

// Count tallies the circuit.
func (c *Circuit) Count() Counts {
	ct := Counts{PerQubit: make([]int, c.NQubits)}
	for _, g := range c.Gates {
		switch {
		case g.Kind == Measure:
			ct.Measure++
		case g.Kind.Arity() == 2:
			ct.TwoQubit++
			ct.PerQubit[g.Qubit2]++
		default:
			ct.OneQubit++
		}
		ct.PerQubit[g.Qubit]++
		if g.Param != NoParam {
			ct.Param++
		}
	}
	return ct
}

// Builder incrementally constructs a circuit with a fluent interface.
type Builder struct {
	c   *Circuit
	err error
}

// NewBuilder starts a circuit over n qubits.
func NewBuilder(n int) *Builder { return &Builder{c: New(n)} }

func (b *Builder) add(g Gate) *Builder {
	b.c.Gates = append(b.c.Gates, g)
	return b
}

// Gate appends an arbitrary gate.
func (b *Builder) Gate(g Gate) *Builder { return b.add(g) }

// H, X, Y, Z, S, T append the corresponding fixed single-qubit gate.
func (b *Builder) H(q int) *Builder { return b.add(Gate{Kind: H, Qubit: q, Param: NoParam}) }
func (b *Builder) X(q int) *Builder { return b.add(Gate{Kind: X, Qubit: q, Param: NoParam}) }
func (b *Builder) Y(q int) *Builder { return b.add(Gate{Kind: Y, Qubit: q, Param: NoParam}) }
func (b *Builder) Z(q int) *Builder { return b.add(Gate{Kind: Z, Qubit: q, Param: NoParam}) }
func (b *Builder) S(q int) *Builder { return b.add(Gate{Kind: S, Qubit: q, Param: NoParam}) }
func (b *Builder) T(q int) *Builder { return b.add(Gate{Kind: T, Qubit: q, Param: NoParam}) }

// RX, RY, RZ append fixed-angle rotations.
func (b *Builder) RX(q int, theta float64) *Builder {
	return b.add(Gate{Kind: RX, Qubit: q, Theta: theta, Param: NoParam})
}
func (b *Builder) RY(q int, theta float64) *Builder {
	return b.add(Gate{Kind: RY, Qubit: q, Theta: theta, Param: NoParam})
}
func (b *Builder) RZ(q int, theta float64) *Builder {
	return b.add(Gate{Kind: RZ, Qubit: q, Theta: theta, Param: NoParam})
}

// RXP, RYP, RZP, RZZP append rotations bound to parameter slot p,
// growing the parameter count as needed.
func (b *Builder) RXP(q, p int) *Builder { return b.param(Gate{Kind: RX, Qubit: q, Param: p}) }
func (b *Builder) RYP(q, p int) *Builder { return b.param(Gate{Kind: RY, Qubit: q, Param: p}) }
func (b *Builder) RZP(q, p int) *Builder { return b.param(Gate{Kind: RZ, Qubit: q, Param: p}) }
func (b *Builder) RZZP(q1, q2, p int) *Builder {
	return b.param(Gate{Kind: RZZ, Qubit: q1, Qubit2: q2, Param: p})
}

func (b *Builder) param(g Gate) *Builder {
	if g.Param >= b.c.NumParams {
		b.c.NumParams = g.Param + 1
	}
	return b.add(g)
}

// CX, CZ append two-qubit gates.
func (b *Builder) CX(control, target int) *Builder {
	return b.add(Gate{Kind: CX, Qubit: control, Qubit2: target, Param: NoParam})
}
func (b *Builder) CZ(q1, q2 int) *Builder {
	return b.add(Gate{Kind: CZ, Qubit: q1, Qubit2: q2, Param: NoParam})
}

// RZZ appends a fixed-angle ZZ rotation.
func (b *Builder) RZZ(q1, q2 int, theta float64) *Builder {
	return b.add(Gate{Kind: RZZ, Qubit: q1, Qubit2: q2, Theta: theta, Param: NoParam})
}

// Measure appends a computational-basis measurement of qubit q.
func (b *Builder) Measure(q int) *Builder {
	return b.add(Gate{Kind: Measure, Qubit: q, Param: NoParam})
}

// MeasureAll measures every qubit in index order.
func (b *Builder) MeasureAll() *Builder {
	for q := 0; q < b.c.NQubits; q++ {
		b.Measure(q)
	}
	return b
}

// Build validates and returns the circuit.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.c.Validate(); err != nil {
		return nil, err
	}
	return b.c, nil
}

// MustBuild is Build for circuits constructed from trusted code paths.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// Pi is shorthand used throughout workload construction.
const Pi = math.Pi
