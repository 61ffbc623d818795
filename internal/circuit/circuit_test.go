package circuit

import (
	"math"
	"testing"
)

func TestKindProperties(t *testing.T) {
	tests := []struct {
		k     Kind
		name  string
		arity int
		param bool
	}{
		{H, "h", 1, false},
		{X, "x", 1, false},
		{RX, "rx", 1, true},
		{RY, "ry", 1, true},
		{RZ, "rz", 1, true},
		{CZ, "cz", 2, false},
		{CX, "cx", 2, false},
		{RZZ, "rzz", 2, true},
		{Measure, "measure", 1, false},
	}
	for _, tt := range tests {
		if tt.k.String() != tt.name {
			t.Errorf("%v.String() = %q, want %q", tt.k, tt.k.String(), tt.name)
		}
		if tt.k.Arity() != tt.arity {
			t.Errorf("%v.Arity() = %d, want %d", tt.k, tt.k.Arity(), tt.arity)
		}
		if tt.k.Parameterized() != tt.param {
			t.Errorf("%v.Parameterized() = %v, want %v", tt.k, tt.k.Parameterized(), tt.param)
		}
		back, ok := KindByName(tt.name)
		if !ok || back != tt.k {
			t.Errorf("KindByName(%q) = %v,%v", tt.name, back, ok)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("KindByName accepted unknown name")
	}
	// Program-entry type field is 4 bits (Table 2): all kinds must fit.
	if numKinds > 16 {
		t.Errorf("gate kinds (%d) exceed the 4-bit type field", numKinds)
	}
}

func TestBuilderAndValidate(t *testing.T) {
	c := NewBuilder(3).
		H(0).CX(0, 1).RYP(2, 0).RZZP(0, 2, 1).RZ(1, 0.5).MeasureAll().
		MustBuild()
	if c.NQubits != 3 {
		t.Errorf("NQubits = %d", c.NQubits)
	}
	if c.NumParams != 2 {
		t.Errorf("NumParams = %d, want 2", c.NumParams)
	}
	if len(c.Gates) != 8 {
		t.Errorf("len(Gates) = %d, want 8", len(c.Gates))
	}
	ct := c.Count()
	if ct.OneQubit != 3 || ct.TwoQubit != 2 || ct.Measure != 3 || ct.Param != 2 {
		t.Errorf("Count = %+v", ct)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		c    *Circuit
	}{
		{"qubit out of range", &Circuit{NQubits: 2, Gates: []Gate{{Kind: H, Qubit: 2, Param: NoParam}}}},
		{"negative qubit", &Circuit{NQubits: 2, Gates: []Gate{{Kind: H, Qubit: -1, Param: NoParam}}}},
		{"duplicate operands", &Circuit{NQubits: 2, Gates: []Gate{{Kind: CX, Qubit: 1, Qubit2: 1, Param: NoParam}}}},
		{"param on fixed gate", &Circuit{NQubits: 2, NumParams: 1, Gates: []Gate{{Kind: H, Qubit: 0, Param: 0}}}},
		{"param out of range", &Circuit{NQubits: 2, NumParams: 1, Gates: []Gate{{Kind: RX, Qubit: 0, Param: 3}}}},
	}
	for _, tt := range tests {
		if err := tt.c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid circuit", tt.name)
		}
	}
}

func TestBind(t *testing.T) {
	c := NewBuilder(2).RXP(0, 0).RYP(1, 1).RX(0, 7).MustBuild()
	b := c.Bind([]float64{0.25, -1.5})
	if b.NumParams != 0 {
		t.Errorf("bound NumParams = %d", b.NumParams)
	}
	angles := []float64{0.25, -1.5, 7}
	for i, g := range b.Gates {
		if g.Param != NoParam {
			t.Errorf("gate %d still has Param %d", i, g.Param)
		}
		if g.Theta != angles[i] {
			t.Errorf("gate %d Theta = %v, want %v", i, g.Theta, angles[i])
		}
	}
	// Original untouched.
	if c.Gates[0].Param != 0 || c.NumParams != 2 {
		t.Error("Bind mutated the source circuit")
	}
}

func TestGateString(t *testing.T) {
	tests := []struct {
		g    Gate
		want string
	}{
		{Gate{Kind: H, Qubit: 3, Param: NoParam}, "h q3"},
		{Gate{Kind: RX, Qubit: 0, Theta: 0.5, Param: NoParam}, "rx(0.5) q0"},
		{Gate{Kind: RX, Qubit: 0, Param: 4}, "rx(p4) q0"},
		{Gate{Kind: CX, Qubit: 0, Qubit2: 1, Param: NoParam}, "cx q0,q1"},
		{Gate{Kind: RZZ, Qubit: 1, Qubit2: 2, Theta: math.Pi, Param: NoParam}, "rzz(3.141592653589793) q1,q2"},
	}
	for _, tt := range tests {
		if got := tt.g.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewBuilder(2).H(0).MustBuild()
	cl := c.Clone()
	cl.Gates[0].Qubit = 1
	if c.Gates[0].Qubit != 0 {
		t.Error("Clone shares gate storage")
	}
}
