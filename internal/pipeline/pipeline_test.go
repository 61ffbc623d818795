package pipeline

import (
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/qcc"
	"qtenon/internal/slt"
)

// rig builds a small cache + SLT bank + pipeline.
func rig(t *testing.T, nqubits int, cfg Config) (*Pipeline, *qcc.Cache, *slt.Bank) {
	t.Helper()
	cacheCfg := qcc.DefaultConfig(nqubits)
	cache, err := qcc.NewCache(cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := slt.NewBank(nqubits, cacheCfg.PulseEntries)
	p, err := New(cfg, cache, bank)
	if err != nil {
		t.Fatal(err)
	}
	return p, cache, bank
}

// loadGate writes one program entry describing a gate.
func loadGate(t *testing.T, cache *qcc.Cache, q, idx int, kind circuit.Kind, theta float64) {
	t.Helper()
	e := qcc.ProgramEntry{
		Type:   uint8(kind),
		Data:   qcc.QuantizeAngle(theta),
		Status: qcc.StatusInvalid,
	}
	if err := cache.WriteProgram(q, idx, e, qcc.HostAccess); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRun(t *testing.T) {
	p, _, _ := rig(t, 2, DefaultConfig())
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.Processed != 0 {
		t.Errorf("empty run = %+v", res)
	}
}

func TestSingleGateLatency(t *testing.T) {
	cfg := DefaultConfig()
	p, cache, _ := rig(t, 2, cfg)
	loadGate(t, cache, 0, 0, circuit.RX, 1.25)
	res, err := p.Run([]WorkItem{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 1 || res.Processed != 1 {
		t.Fatalf("res = %+v", res)
	}
	// One gate: ~2 cycles of front end + 1000 PGU cycles + writeback.
	if res.Cycles < cfg.PGULatency || res.Cycles > cfg.PGULatency+10 {
		t.Errorf("cycles = %d, want ≈%d", res.Cycles, cfg.PGULatency)
	}
	// Program entry got a valid QAddr.
	e, _ := cache.ReadProgram(0, 0, qcc.HostAccess)
	if e.Status != qcc.StatusValid {
		t.Errorf("status = %d, want valid", e.Status)
	}
}

// A ranged q_gen hands Run only the entries inside the range: those
// become valid and the rest stay untouched until a full q_gen.
func TestQGenRange(t *testing.T) {
	p, cache, _ := rig(t, 2, DefaultConfig())
	// Two qubits, two distinct gates each.
	loadGate(t, cache, 0, 0, circuit.RX, 0.1)
	loadGate(t, cache, 0, 1, circuit.RX, 0.2)
	loadGate(t, cache, 1, 0, circuit.RX, 0.3)
	loadGate(t, cache, 1, 1, circuit.RX, 0.4)

	// Range covering only qubit 0's entries.
	if _, err := p.Run([]WorkItem{{0, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		e, _ := cache.ReadProgram(0, i, qcc.HostAccess)
		if e.Status != qcc.StatusValid {
			t.Errorf("q0[%d] status = %d after ranged q_gen", i, e.Status)
		}
		e, _ = cache.ReadProgram(1, i, qcc.HostAccess)
		if e.Status != qcc.StatusInvalid {
			t.Errorf("q1[%d] status = %d; ranged q_gen leaked", i, e.Status)
		}
	}

	// Full range: every entry is processed.
	if _, err := p.Run([]WorkItem{{0, 0}, {0, 1}, {1, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		for i := 0; i < 2; i++ {
			e, _ := cache.ReadProgram(q, i, qcc.HostAccess)
			if e.Status != qcc.StatusValid {
				t.Errorf("q%d[%d] status = %d after full q_gen", q, i, e.Status)
			}
		}
	}
}

func TestSLTSkipsRepeatedParameters(t *testing.T) {
	p, cache, bank := rig(t, 1, DefaultConfig())
	// Same angle 10 times on one qubit.
	items := make([]WorkItem, 10)
	for i := range items {
		loadGate(t, cache, 0, i, circuit.RX, 0.5)
		items[i] = WorkItem{0, i}
	}
	res, err := p.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 1 {
		t.Errorf("generated = %d, want 1 (SLT skips repeats)", res.Generated)
	}
	if res.Skipped != 9 {
		t.Errorf("skipped = %d, want 9", res.Skipped)
	}
	// All entries share one pulse address.
	first, _ := cache.ReadProgram(0, 0, qcc.HostAccess)
	for i := 1; i < 10; i++ {
		e, _ := cache.ReadProgram(0, i, qcc.HostAccess)
		if e.QAddr != first.QAddr {
			t.Errorf("entry %d QAddr %d != %d", i, e.QAddr, first.QAddr)
		}
	}
	if hr := bank.TotalStats().HitRate(); hr < 0.89 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestDistinctAnglesAllGenerate(t *testing.T) {
	p, cache, _ := rig(t, 1, DefaultConfig())
	items := make([]WorkItem, 8)
	for i := range items {
		loadGate(t, cache, 0, i, circuit.RX, 0.1*float64(i+1))
		items[i] = WorkItem{0, i}
	}
	res, err := p.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 8 {
		t.Errorf("generated = %d, want 8", res.Generated)
	}
}

func TestPGUParallelism(t *testing.T) {
	// 8 distinct gates with 8 PGUs: total time ≈ one PGU latency, not 8×.
	cfg := DefaultConfig()
	p, cache, _ := rig(t, 8, cfg)
	var items []WorkItem
	for q := 0; q < 8; q++ {
		loadGate(t, cache, q, 0, circuit.RX, 0.1*float64(q+1))
		items = append(items, WorkItem{q, 0})
	}
	res, err := p.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 8 {
		t.Fatalf("generated = %d", res.Generated)
	}
	if res.Cycles > cfg.PGULatency+50 {
		t.Errorf("8 gates on 8 PGUs took %d cycles; want ≈%d (parallel)", res.Cycles, cfg.PGULatency)
	}
}

func TestPGUStallWhenOversubscribed(t *testing.T) {
	// 2 PGUs, 6 distinct gates: at least 3 serial PGU rounds, with stalls.
	cfg := DefaultConfig()
	cfg.PGUs = 2
	p, cache, _ := rig(t, 1, cfg)
	var items []WorkItem
	for i := 0; i < 6; i++ {
		loadGate(t, cache, 0, i, circuit.RY, 0.2*float64(i+1))
		items = append(items, WorkItem{0, i})
	}
	res, err := p.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles == 0 {
		t.Error("no stalls with 6 jobs on 2 PGUs")
	}
	if res.Cycles < 3*cfg.PGULatency {
		t.Errorf("cycles = %d, want ≥ %d (3 serial rounds)", res.Cycles, 3*cfg.PGULatency)
	}
}

func TestRegfileIndirection(t *testing.T) {
	p, cache, _ := rig(t, 1, DefaultConfig())
	// Entry with reg_flag: data = regfile index 7.
	e := qcc.ProgramEntry{Type: uint8(circuit.RZ), RegFlag: true, Data: 7, Status: qcc.StatusInvalid}
	if err := cache.WriteProgram(0, 0, e, qcc.HostAccess); err != nil {
		t.Fatal(err)
	}
	if err := cache.WriteReg(7, qcc.QuantizeAngle(1.5), qcc.HostAccess); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run([]WorkItem{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 1 {
		t.Fatalf("generated = %d", res.Generated)
	}
	// Update the register (q_update) and rerun: angle changed, so the SLT
	// misses and a new pulse is generated.
	if err := cache.WriteReg(7, qcc.QuantizeAngle(2.5), qcc.HostAccess); err != nil {
		t.Fatal(err)
	}
	res2, err := p.Run([]WorkItem{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Generated != 1 {
		t.Errorf("after q_update: generated = %d, want 1", res2.Generated)
	}
	// Reverting to the original angle hits the SLT: zero generation.
	if err := cache.WriteReg(7, qcc.QuantizeAngle(1.5), qcc.HostAccess); err != nil {
		t.Fatal(err)
	}
	res3, err := p.Run([]WorkItem{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Generated != 0 || res3.Skipped != 1 {
		t.Errorf("revert: %+v, want pure SLT hit", res3)
	}
}

func TestValidStatusFixedGateSkipsEntirely(t *testing.T) {
	p, cache, bank := rig(t, 1, DefaultConfig())
	loadGate(t, cache, 0, 0, circuit.RX, 0.7)
	if _, err := p.Run([]WorkItem{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	before := bank.TotalStats().Lookups
	// Second q_gen over the same (non-reg) entry: status is valid, no SLT
	// lookup is even needed.
	res, err := p.Run([]WorkItem{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 0 {
		t.Errorf("regenerated a valid entry")
	}
	if bank.TotalStats().Lookups != before {
		t.Errorf("valid fixed entry still queried the SLT")
	}
}

func TestNoSLTAblationAlwaysGenerates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSLT = false
	p, cache, _ := rig(t, 1, cfg)
	items := make([]WorkItem, 5)
	for i := range items {
		loadGate(t, cache, 0, i, circuit.RX, 0.5) // identical parameters
		items[i] = WorkItem{0, i}
	}
	res, err := p.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 5 {
		t.Errorf("no-SLT generated = %d, want 5", res.Generated)
	}
}

func TestPulseWrittenToCache(t *testing.T) {
	p, cache, _ := rig(t, 1, DefaultConfig())
	loadGate(t, cache, 0, 0, circuit.RX, circuit.Pi/2)
	if _, err := p.Run([]WorkItem{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	e, _ := cache.ReadProgram(0, 0, qcc.HostAccess)
	pe, err := cache.ReadPulse(0, int(e.QAddr), qcc.HardwareAccess)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, w := range pe {
		if w != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("pulse entry is all zeros; synthesis did not land")
	}
}

func TestNewValidation(t *testing.T) {
	cacheCfg := qcc.DefaultConfig(2)
	cache, _ := qcc.NewCache(cacheCfg)
	bank := slt.NewBank(4, cacheCfg.PulseEntries) // mismatched qubit count
	if _, err := New(DefaultConfig(), cache, bank); err == nil {
		t.Error("New accepted mismatched geometry")
	}
	bad := DefaultConfig()
	bad.PGUs = 0
	if _, err := New(bad, cache, slt.NewBank(2, 1024)); err == nil {
		t.Error("New accepted zero PGUs")
	}
}

func TestThroughputScalesWithPGUs(t *testing.T) {
	// 32 distinct gates: 8 PGUs should be ≈4× faster than 1 PGU.
	mkRun := func(pgus int) int64 {
		cfg := DefaultConfig()
		cfg.PGUs = pgus
		p, cache, _ := rig(t, 1, cfg)
		var items []WorkItem
		for i := 0; i < 32; i++ {
			loadGate(t, cache, 0, i, circuit.RX, 0.01*float64(i+1))
			items = append(items, WorkItem{0, i})
		}
		res, err := p.Run(items)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	one := mkRun(1)
	eight := mkRun(8)
	speedup := float64(one) / float64(eight)
	if speedup < 6 || speedup > 9 {
		t.Errorf("PGU speedup 1→8 = %.2f, want ≈8", speedup)
	}
}
