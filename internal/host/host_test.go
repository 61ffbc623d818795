package host

import (
	"testing"

	"qtenon/internal/sim"
)

func TestCoreTime(t *testing.T) {
	r := Rocket()
	// 800 instructions at IPC 0.8 on 1 GHz = 1000 cycles = 1 µs.
	if got := r.Time(800); got != sim.Microsecond {
		t.Errorf("Rocket.Time(800) = %v, want 1µs", got)
	}
	if got := r.Time(0); got != 0 {
		t.Errorf("Time(0) = %v", got)
	}
	if got := r.Time(-5); got != 0 {
		t.Errorf("Time(-5) = %v", got)
	}
	b := BoomL()
	if b.Time(1_000_000) >= r.Time(1_000_000) {
		t.Error("Boom-L not faster than Rocket")
	}
	i9 := I9()
	if i9.Time(1_000_000) >= b.Time(1_000_000) {
		t.Error("i9 not faster than Boom-L")
	}
}

func TestCoreConfigsMatchPaper(t *testing.T) {
	if Rocket().Clock != sim.NewClock(1_000_000_000) {
		t.Error("Rocket not at 1 GHz (Table 4)")
	}
	if BoomL().Clock != sim.NewClock(1_000_000_000) {
		t.Error("Boom-L not at 1 GHz (Table 4)")
	}
}

func TestDefaultCostsValidate(t *testing.T) {
	if err := DefaultCosts().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultCosts()
	bad.JITPerGate = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero JITPerGate")
	}
}

func TestJITVsIncrementalRange(t *testing.T) {
	c := DefaultCosts()
	i9 := I9()
	// Baseline full recompilation of a 64-qubit QAOA-class circuit
	// (≈1000 gates) must land in the paper's 1–100 ms window.
	jit := i9.Time(c.JITCompile(1000))
	if jit < sim.Millisecond || jit > 100*sim.Millisecond {
		t.Errorf("JIT recompile = %v, want within 1–100 ms", jit)
	}
	// Qtenon incremental recompilation of one parameter on Rocket must be
	// tens of ns (paper: 10–100 ns).
	inc := Rocket().Time(c.IncrementalCompile(1))
	if inc < 10*sim.Nanosecond || inc > 100*sim.Nanosecond {
		t.Errorf("incremental recompile = %v, want within 10–100 ns", inc)
	}
}

func TestCostScaling(t *testing.T) {
	c := DefaultCosts()
	if c.PostProcess(1000, 64) <= c.PostProcess(500, 64) {
		t.Error("PostProcess not monotone in shots")
	}
	// Word-granular: 8..64 qubits cost the same, 65+ costs more.
	if c.PostProcess(500, 64) != c.PostProcess(500, 8) {
		t.Error("PostProcess not word-granular within 64 qubits")
	}
	if c.PostProcess(500, 128) <= c.PostProcess(500, 64) {
		t.Error("PostProcess not monotone in measurement words")
	}
	if c.ParamUpdate(128) != 2*c.ParamUpdate(64) {
		t.Error("ParamUpdate not linear")
	}
	if c.IncrementalCompile(10) != 10*c.IncrementalCompile(1) {
		t.Error("IncrementalCompile not linear")
	}
	if c.JITCompile(2000) <= c.JITCompile(100) {
		t.Error("JITCompile not monotone in gates")
	}
}
