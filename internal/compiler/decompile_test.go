package compiler

import (
	"math"
	"strings"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qcc"
)

func TestListing(t *testing.T) {
	c := circuit.NewBuilder(2).H(0).RXP(1, 0).RY(1, 0.25).MeasureAll().MustBuild()
	cfg := qcc.DefaultConfig(2)
	p, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Listing(cfg)
	for _, want := range []string{
		"qubit 0 chunk @ 0x00000",
		"qubit 1 chunk @ 0x00400",
		"h", "rx", "reg[0]", "ry", "0.250000", "measure", "status=valid", "status=invalid",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestFormatEntry(t *testing.T) {
	tests := []struct {
		e      qcc.ProgramEntry
		want   []string
		absent string // must not appear; "" checks nothing
	}{
		{qcc.ProgramEntry{Type: uint8(circuit.RY), RegFlag: true, Data: 3}, []string{"ry", "reg[3]", "status=invalid"}, ""},
		{qcc.ProgramEntry{Type: uint8(circuit.RX), Data: qcc.QuantizeAngle(math.Pi / 2), Status: qcc.StatusValid, QAddr: 0x12},
			[]string{"rx", "1.570796", "status=valid", "qaddr=0x12"}, ""},
		{qcc.ProgramEntry{Type: uint8(circuit.Measure), Status: qcc.StatusValid}, []string{"measure", "status=valid"}, ""},
		// Gates without an angle print none; a fixed rotation prints its
		// angle even when it is zero.
		{qcc.ProgramEntry{Type: uint8(circuit.H), Status: qcc.StatusPending}, []string{"h", "status=pending"}, "0.000000"},
		{qcc.ProgramEntry{Type: uint8(circuit.CX), Status: qcc.StatusValid, QAddr: 0x7}, []string{"cx", "status=valid", "qaddr=0x7"}, "0.000000"},
		{qcc.ProgramEntry{Type: uint8(circuit.RZ), Data: qcc.QuantizeAngle(0)}, []string{"rz", "0.000000", "status=invalid"}, ""},
	}
	for _, tt := range tests {
		got := FormatEntry(tt.e)
		for _, w := range tt.want {
			if !strings.Contains(got, w) {
				t.Errorf("FormatEntry(%+v) = %q, missing %q", tt.e, got, w)
			}
		}
		if tt.absent != "" && strings.Contains(got, tt.absent) {
			t.Errorf("FormatEntry(%+v) = %q, contains %q", tt.e, got, tt.absent)
		}
	}
}

// Compile → Load → ReconstructGates round-trips the per-qubit gate view,
// including regfile references and quantized angles.
func TestReconstructGates(t *testing.T) {
	c := circuit.NewBuilder(3).
		H(0).RXP(1, 0).RZZP(0, 2, 1).RY(2, 0.75).MeasureAll().
		MustBuild()
	cfg := qcc.DefaultConfig(3)
	p, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := qcc.NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(cache, []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for q := range p.Entries {
		counts[q] = len(p.Entries[q])
	}
	got, err := ReconstructGates(cache, counts)
	if err != nil {
		t.Fatal(err)
	}
	// Qubit 0 chunk: H, RZZ (param 1), measure.
	if got[0][0].Kind != circuit.H {
		t.Errorf("q0[0] = %v", got[0][0])
	}
	if got[0][1].Kind != circuit.RZZ || got[0][1].Param != 1 {
		t.Errorf("q0[1] = %v", got[0][1])
	}
	// Qubit 1 chunk: RXP → param 0.
	if got[1][0].Kind != circuit.RX || got[1][0].Param != 0 {
		t.Errorf("q1[0] = %v", got[1][0])
	}
	// Qubit 2 chunk: RZZ twin, fixed RY with quantized angle.
	ry := got[2][1]
	if ry.Kind != circuit.RY || math.Abs(ry.Theta-0.75) > 1e-6 || ry.Param != circuit.NoParam {
		t.Errorf("q2[1] = %v", ry)
	}
	// Wrong counts arity errors.
	if _, err := ReconstructGates(cache, []int{1}); err == nil {
		t.Error("accepted wrong counts length")
	}
}
