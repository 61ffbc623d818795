package isa

import (
	"strings"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/vqa"
)

func boundQAOA(t *testing.T, nq int) *circuit.Circuit {
	t.Helper()
	w, err := vqa.NewQAOA(nq, 5)
	if err != nil {
		t.Fatal(err)
	}
	return w.Circuit.Bind(w.InitialParams)
}

func TestGenerateEQASMStructure(t *testing.T) {
	c := circuit.NewBuilder(2).H(0).CX(0, 1).RX(1, 0.5).MeasureAll().MustBuild()
	p, err := GenerateEQASM(c, circuit.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(p.Instructions, "\n")
	for _, want := range []string{"init q0", "init q1", "h q0", "cx q0, q1", "rx q1,", "measz q0", "fmr r0, q0", "stop", "qwait"} {
		if !strings.Contains(text, want) {
			t.Errorf("eQASM missing %q:\n%s", want, text)
		}
	}
	// Every gate has a statically encoded qubit index; 2-qubit gates both.
	if !strings.Contains(text, "q0, q1") {
		t.Error("2-qubit operands not statically encoded")
	}
}

func TestGenerateRejectsUnbound(t *testing.T) {
	c := circuit.NewBuilder(1).RXP(0, 0).MustBuild()
	if _, err := GenerateEQASM(c, circuit.DefaultTiming()); err == nil {
		t.Error("eQASM generator accepted unbound circuit")
	}
	if _, err := GenerateHiSEPQ(c, circuit.DefaultTiming()); err == nil {
		t.Error("HiSEP-Q generator accepted unbound circuit")
	}
}

func TestHiSEPQDenserThanEQASM(t *testing.T) {
	// HiSEP-Q's bitmask addressing must beat eQASM's per-qubit encoding
	// on wide parallel layers.
	c := boundQAOA(t, 16)
	tm := circuit.DefaultTiming()
	eq, err := GenerateEQASM(c, tm)
	if err != nil {
		t.Fatal(err)
	}
	hq, err := GenerateHiSEPQ(c, tm)
	if err != nil {
		t.Fatal(err)
	}
	if hq.Len() >= eq.Len() {
		t.Errorf("HiSEP-Q %d not denser than eQASM %d", hq.Len(), eq.Len())
	}
}

// The analytic counters used in Table 1 must agree with generated code
// within a factor of two across workload shapes (they model the same
// ISAs).
func TestCountModelsTrackGeneratedCode(t *testing.T) {
	tm := circuit.DefaultTiming()
	for _, nq := range []int{8, 16, 32} {
		c := boundQAOA(t, nq)
		ct := c.Count()
		shape := WorkloadShape{
			Gates:      ct.OneQubit + ct.TwoQubit,
			TwoQubit:   ct.TwoQubit,
			Measures:   ct.Measure,
			Iterations: 1,
		}
		eq, err := GenerateEQASM(c, tm)
		if err != nil {
			t.Fatal(err)
		}
		// The analytic model is deliberately conservative (it charges an
		// explicit timing instruction per gate, where the generator
		// coalesces same-layer waits), so allow up to ~3×.
		model := EQASMCount(shape)
		ratio := float64(model) / float64(eq.Len())
		if ratio < 0.5 || ratio > 3 {
			t.Errorf("nq=%d: eQASM model %d vs generated %d (ratio %.2f)", nq, model, eq.Len(), ratio)
		}
		hq, err := GenerateHiSEPQ(c, tm)
		if err != nil {
			t.Fatal(err)
		}
		hmodel := HiSEPQCount(shape)
		hratio := float64(hmodel) / float64(hq.Len())
		if hratio < 0.5 || hratio > 6 {
			t.Errorf("nq=%d: HiSEP-Q model %d vs generated %d (ratio %.2f)", nq, hmodel, hq.Len(), hratio)
		}
	}
}

func TestGeneratedGrowsWithQubits(t *testing.T) {
	tm := circuit.DefaultTiming()
	small, _ := GenerateEQASM(boundQAOA(t, 8), tm)
	big, _ := GenerateEQASM(boundQAOA(t, 32), tm)
	if big.Len() <= small.Len() {
		t.Errorf("eQASM not growing with register: %d vs %d", small.Len(), big.Len())
	}
}
