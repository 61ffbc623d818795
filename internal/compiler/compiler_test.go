package compiler

import (
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/pipeline"
	"qtenon/internal/qcc"
	"qtenon/internal/slt"
)

func compileSmall(t *testing.T) (*Program, *circuit.Circuit, qcc.Config) {
	t.Helper()
	c := circuit.NewBuilder(3).
		H(0).RXP(1, 0).RZZP(0, 2, 1).RY(2, 0.5).MeasureAll().
		MustBuild()
	cfg := qcc.DefaultConfig(3)
	p, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, c, cfg
}

func TestCompileLayout(t *testing.T) {
	p, _, _ := compileSmall(t)
	// Gates: H(q0), RXP(q1), RZZP(q0,q2)→2 entries, RY(q2), 3 measures.
	if p.Gates != 4 {
		t.Errorf("Gates = %d, want 4", p.Gates)
	}
	if p.TwoQubit != 1 {
		t.Errorf("TwoQubit = %d, want 1", p.TwoQubit)
	}
	if p.PulseEntriesNeeded != 5 {
		t.Errorf("PulseEntriesNeeded = %d, want 5 (2q counts twice)", p.PulseEntriesNeeded)
	}
	if p.TotalEntries() != 8 { // 5 drive entries + 3 measures
		t.Errorf("TotalEntries = %d, want 8", p.TotalEntries())
	}
	if len(p.Items) != 5 {
		t.Errorf("work items = %d, want 5 (measures excluded)", len(p.Items))
	}
	// q0 chunk: H, RZZ, measure.
	if len(p.Entries[0]) != 3 {
		t.Errorf("q0 entries = %d, want 3", len(p.Entries[0]))
	}
	if p.Entries[0][0].Type != uint8(circuit.H) {
		t.Errorf("q0[0] type = %d", p.Entries[0][0].Type)
	}
	// RZZ entry duplicated into q2's chunk with identical type/data.
	if p.Entries[0][1].Type != uint8(circuit.RZZ) || p.Entries[2][0].Type != uint8(circuit.RZZ) {
		t.Error("RZZ not present in both operand chunks")
	}
	if p.Entries[0][1].Data != p.Entries[2][0].Data {
		t.Error("RZZ twin entries disagree on data")
	}
}

func TestCompileRegFlags(t *testing.T) {
	p, _, _ := compileSmall(t)
	// Parameterized RXP(q1,0): reg_flag set, data = regfile index 0.
	e := p.Entries[1][0]
	if !e.RegFlag || e.Data != 0 {
		t.Errorf("param gate entry = %+v", e)
	}
	// Fixed RY(q2, 0.5): immediate data.
	ry := p.Entries[2][1]
	if ry.RegFlag {
		t.Error("fixed gate has reg_flag")
	}
	if ry.Data != qcc.QuantizeAngle(0.5) {
		t.Errorf("fixed data = %d, want quantized 0.5", ry.Data)
	}
	// Measure entries are StatusValid (no pulse generation).
	last := p.Entries[0][2]
	if last.Type != uint8(circuit.Measure) || last.Status != qcc.StatusValid {
		t.Errorf("measure entry = %+v", last)
	}
}

func TestCompileRejects(t *testing.T) {
	cfg := qcc.DefaultConfig(2)
	tooWide := circuit.NewBuilder(3).H(0).MustBuild()
	if _, err := Compile(tooWide, cfg); err == nil {
		t.Error("accepted circuit wider than controller")
	}
	// Overflow a tiny program chunk.
	small := cfg
	small.ProgramEntries = 2
	big := circuit.NewBuilder(2).H(0).H(0).H(0).MustBuild()
	if _, err := Compile(big, small); err == nil {
		t.Error("accepted chunk overflow")
	}
	// Too many parameters for the regfile.
	manyParams := circuit.New(2)
	manyParams.NumParams = 2000
	if _, err := Compile(manyParams, cfg); err == nil {
		t.Error("accepted parameter count beyond regfile")
	}
}

func TestRegfileImageAndDiff(t *testing.T) {
	p, _, _ := compileSmall(t)
	img, err := p.AppendRegfileImage(nil, []float64{0.25, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if img[0] != qcc.QuantizeAngle(0.25) || img[1] != qcc.QuantizeAngle(1.5) {
		t.Errorf("image = %v", img)
	}
	if _, err := p.AppendRegfileImage(nil, []float64{1}); err == nil {
		t.Error("accepted wrong arity")
	}

	deltas, err := p.Diff([]float64{0.25, 1.5}, []float64{0.25, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Param != 1 {
		t.Errorf("deltas = %+v, want single update of param 1", deltas)
	}
	if deltas[0].Value != qcc.QuantizeAngle(2.0) {
		t.Errorf("delta value = %d", deltas[0].Value)
	}
	// Identical vectors → no traffic.
	deltas, _ = p.Diff([]float64{0.25, 1.5}, []float64{0.25, 1.5})
	if len(deltas) != 0 {
		t.Errorf("no-op diff = %+v", deltas)
	}
	// Sub-quantum change → no traffic (angle quantization dedupes).
	deltas, _ = p.Diff([]float64{0.25, 1.5}, []float64{0.25 + 1e-10, 1.5})
	if len(deltas) != 0 {
		t.Errorf("sub-quantum diff = %+v", deltas)
	}
}

func TestLoadAndPipelineEndToEnd(t *testing.T) {
	// Compile → Load → q_gen through the real pipeline: every drive gate
	// gets a valid pulse address.
	p, _, cfg := compileSmall(t)
	cache, err := qcc.NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(cache, []float64{0.25, 1.5}); err != nil {
		t.Fatal(err)
	}
	bank := slt.NewBank(cfg.NQubits, cfg.PulseEntries)
	pipe, err := pipeline.New(pipeline.DefaultConfig(), cache, bank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(p.Items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != len(p.Items) {
		t.Errorf("processed = %d, want %d", res.Processed, len(p.Items))
	}
	for _, it := range p.Items {
		e, err := cache.ReadProgram(it.Qubit, it.Index, qcc.HostAccess)
		if err != nil {
			t.Fatal(err)
		}
		if e.Status != qcc.StatusValid {
			t.Errorf("entry %v status = %d after q_gen", it, e.Status)
		}
	}
	// Incremental update path: change one parameter, apply deltas, rerun.
	deltas, _ := p.Diff([]float64{0.25, 1.5}, []float64{0.3, 1.5})
	if err := ApplyDeltas(cache, deltas); err != nil {
		t.Fatal(err)
	}
	res2, err := pipe.Run(p.Items)
	if err != nil {
		t.Fatal(err)
	}
	// Only the gates bound to param 0 regenerate (1 gate → 1 pulse);
	// everything else hits SLT/valid-status skips.
	if res2.Generated != 1 {
		t.Errorf("after single-param update: generated = %d, want 1", res2.Generated)
	}
}

func TestCompileLargeQAOALikeProgram(t *testing.T) {
	// A 64-qubit, 5-layer ring QAOA fits comfortably in the 1024-entry
	// chunks, and its instruction economy is the Table 1 claim.
	n := 64
	b := circuit.NewBuilder(n)
	for q := 0; q < n; q++ {
		b.H(q)
	}
	for layer := 0; layer < 5; layer++ {
		gamma, beta := 2*layer, 2*layer+1
		for q := 0; q < n; q++ {
			b.RZZP(q, (q+1)%n, gamma)
		}
		for q := 0; q < n; q++ {
			b.RXP(q, beta)
		}
	}
	b.MeasureAll()
	c := b.MustBuild()
	cfg := qcc.DefaultConfig(n)
	p, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per qubit: 1 H + 5 layers × (2 RZZ twins + 1 RX) + 1 measure = 17.
	for q := 0; q < n; q++ {
		if len(p.Entries[q]) != 17 {
			t.Fatalf("qubit %d entries = %d, want 17", q, len(p.Entries[q]))
		}
	}
	if c.NumParams != 10 {
		t.Errorf("params = %d, want 10", c.NumParams)
	}
}
