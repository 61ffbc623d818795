package circuit

import (
	"math/rand"
	"strings"
	"testing"
)

func TestQASMRoundTrip(t *testing.T) {
	c := NewBuilder(3).
		H(0).X(1).CX(0, 1).CZ(1, 2).RX(0, 0.125).RY(1, -2.5).RZ(2, 3.14159).
		RZZ(0, 2, 0.75).MeasureAll().MustBuild()
	text, err := QASMString(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"qreg q[3]", "cx q[0],q[1]", "rx(0.125) q[0]", "measure q[2] -> c[2]"} {
		if !strings.Contains(text, want) {
			t.Errorf("QASM missing %q in:\n%s", want, text)
		}
	}
	back, err := ParseQASM(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseQASM: %v\n%s", err, text)
	}
	if back.NQubits != c.NQubits || len(back.Gates) != len(c.Gates) {
		t.Fatalf("round trip: %d qubits %d gates, want %d/%d", back.NQubits, len(back.Gates), c.NQubits, len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], back.Gates[i]
		if a.Kind != b.Kind || a.Qubit != b.Qubit || a.Qubit2 != b.Qubit2 || a.Theta != b.Theta {
			t.Errorf("gate %d: %v != %v", i, a, b)
		}
	}
}

func TestQASMRejectsUnbound(t *testing.T) {
	c := NewBuilder(1).RXP(0, 0).MustBuild()
	if _, err := QASMString(c); err == nil {
		t.Error("QASMString accepted unbound circuit")
	}
}

func TestParseQASMErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"no qreg", "OPENQASM 2.0;\nh q[0];"},
		{"unknown gate", "qreg q[1];\nfrobnicate q[0];"},
		{"bad qubit ref", "qreg q[1];\nh q0;"},
		{"arity mismatch", "qreg q[2];\ncx q[0];"},
		{"out of range", "qreg q[1];\nh q[5];"},
		{"nan angle", "qreg q[1];\nrx(nan) q[0];"},
		{"inf angle", "qreg q[1];\nry(inf) q[0];"},
		{"-inf angle", "qreg q[2];\nrz(-inf) q[1];"},
	}
	for _, tt := range tests {
		if _, err := ParseQASM(strings.NewReader(tt.src)); err == nil {
			t.Errorf("%s: parse accepted %q", tt.name, tt.src)
		}
	}
}

func TestParseQASMSkipsCommentsAndBlank(t *testing.T) {
	src := "// header\nOPENQASM 2.0;\n\nqreg q[2];\ncreg c[2];\n// a gate\nh q[0];\nid q[1];\n"
	c, err := ParseQASM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 || c.Gates[0].Kind != H || c.Gates[1].Kind != I {
		t.Errorf("parsed gates = %v", c.Gates)
	}
}

// Property: random circuits round-trip through QASM exactly.
func TestQASMRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := []Kind{I, X, Y, Z, H, S, T, RX, RY, RZ, CZ, CX, RZZ, Measure}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		b := NewBuilder(n)
		for g := 0; g < 30; g++ {
			k := kinds[rng.Intn(len(kinds))]
			q := rng.Intn(n)
			gate := Gate{Kind: k, Qubit: q, Param: NoParam}
			if k.Arity() == 2 {
				q2 := (q + 1 + rng.Intn(n-1)) % n
				gate.Qubit2 = q2
			}
			if k.Parameterized() {
				gate.Theta = rng.NormFloat64()
			}
			b.Gate(gate)
		}
		c := b.MustBuild()
		text, err := QASMString(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseQASM(strings.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(back.Gates) != len(c.Gates) {
			t.Fatalf("trial %d: gate count %d != %d", trial, len(back.Gates), len(c.Gates))
		}
		for i := range c.Gates {
			if c.Gates[i] != back.Gates[i] {
				t.Fatalf("trial %d gate %d: %v != %v", trial, i, c.Gates[i], back.Gates[i])
			}
		}
	}
}
