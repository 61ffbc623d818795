package system

import (
	"testing"

	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/vqa"
)

// Instruction accounting follows the ISA contract: setup issues one
// q_set; every evaluation issues q_gen + q_run + q_acquire plus one
// q_update per changed register, or a full q_set re-upload with
// Incremental off. InstructionCount is the sum of the controller.instr.*
// counters.
func TestInstructionAccounting(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8) // 10 parameters
	if err != nil {
		t.Fatal(err)
	}
	p := append([]float64(nil), w.InitialParams...)
	p[3] += 0.7
	// Three evaluations: the initial parameters, one changed parameter,
	// then nothing changed. want holds the running totals.
	for _, tc := range []struct {
		name        string
		incremental bool
		want        [3]int
	}{
		// q_set + q_gen + q_run + q_acquire = 4; then +1 q_update and
		// the 3 control instructions; then only the 3 control ones.
		{"incremental", true, [3]int{4, 8, 11}},
		// Without the software stack every evaluation re-uploads the
		// program: q_set + q_gen + q_run + q_acquire = 4 each time.
		{"full-reload", false, [3]int{4, 8, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(host.Rocket())
			cfg.Shots = 50
			cfg.Incremental = tc.incremental
			s, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for i, params := range [][]float64{w.InitialParams, p, p} {
				if _, err := s.Evaluate(params); err != nil {
					t.Fatal(err)
				}
				n := s.Result().InstructionCount
				if n != tc.want[i] {
					t.Errorf("after eval %d: %d instructions, want %d", i+1, n, tc.want[i])
				}
				counters := s.Metrics().Snapshot().Counters
				var sum int64
				for _, op := range []string{"q_set", "q_update", "q_gen", "q_run", "q_acquire"} {
					sum += counters["controller.instr."+op]
				}
				if int64(n) != sum {
					t.Errorf("after eval %d: InstructionCount %d, controller.instr.* counters sum to %d", i+1, n, sum)
				}
			}
		})
	}
}

// SLT statistics surface through the system and reflect the GD pattern:
// parameter-shift sweeps revisit angles, so the hit rate climbs.
func TestSLTStatsExposed(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 50
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Iterations = 2
	if _, err := opt.GradientDescent(s.Evaluate, w.InitialParams, o); err != nil {
		t.Fatal(err)
	}
	st := s.bank.TotalStats()
	if st.Lookups == 0 {
		t.Fatal("no SLT lookups recorded")
	}
	if st.Hits+st.QSpaceHits == 0 {
		t.Error("GD parameter-shift produced zero SLT reuse")
	}
	if st.Allocs == 0 {
		t.Error("no allocations recorded")
	}
}

// q_update quantization dedupe: a parameter change below the 24-bit
// angle quantum generates no traffic at all.
func TestSubQuantumUpdateIsFree(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 50
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(w.InitialParams); err != nil {
		t.Fatal(err)
	}
	before := s.Result()
	p := append([]float64(nil), w.InitialParams...)
	p[0] += 1e-9 // below the 2π/2^24 ≈ 3.7e-7 rad quantum
	if _, err := s.Evaluate(p); err != nil {
		t.Fatal(err)
	}
	after := s.Result()
	if got := after.InstructionCount - before.InstructionCount; got != 3 {
		t.Errorf("sub-quantum update issued %d instructions, want 3 (no q_update)", got)
	}
	if after.PulsesGenerated != before.PulsesGenerated {
		t.Error("sub-quantum update regenerated pulses")
	}
}
