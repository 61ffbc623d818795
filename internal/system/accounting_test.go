package system

import (
	"math"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/qcc"
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

// The quantum program is computable data: after the first evaluation's
// q_set, each new angle reaches the controller as a q_update of one
// .regfile register, q_gen regenerates the pulses that read it, and the
// next q_run measures the new state, all without re-uploading the
// program. System binds the host's float parameters for q_run, so the
// register and pulse checks, not the ⟨Z⟩ values alone, witness the
// q_update.
func TestQUpdateChangesNextRun(t *testing.T) {
	w := &vqa.Workload{
		Name:    "ry",
		Circuit: circuit.NewBuilder(1).RYP(0, 0).MeasureAll().MustBuild(),
		Cost: func(outcomes []uint64) float64 { // ⟨Z⟩ of qubit 0
			z := 0
			for _, o := range outcomes {
				z += 1 - 2*int(o&1)
			}
			return float64(z) / float64(len(outcomes))
		},
		InitialParams: []float64{0},
	}
	cfg := DefaultConfig(host.Rocket())
	cfg.Shots = 400
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var pulses int64
	for i, tc := range []struct {
		theta, z, tol float64
	}{
		{0, 1, 0},
		{math.Pi, -1, 0},
		{math.Pi / 2, 0, 0.2},
	} {
		z, err := s.Evaluate([]float64{tc.theta})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(z-tc.z) > tc.tol {
			t.Errorf("RY(%v): ⟨Z⟩ = %v, want %v ± %v", tc.theta, z, tc.z, tc.tol)
		}
		v, err := s.cache.ReadReg(0, qcc.HostAccess)
		if err != nil {
			t.Fatal(err)
		}
		if want := qcc.QuantizeAngle(tc.theta); v != want {
			t.Errorf("RY(%v): .regfile[0] = %#x, want %#x", tc.theta, v, want)
		}
		gen := s.Result().PulsesGenerated
		if i == 1 && gen <= pulses {
			t.Errorf("RY(π): q_gen regenerated no pulse (%d generated before, %d after)", pulses, gen)
		}
		pulses = gen
	}
	counters := s.Metrics().Snapshot().Counters
	for _, c := range []struct {
		op   string
		want int64
	}{{"q_set", 1}, {"q_update", 2}, {"q_run", 3}} {
		if got := counters["controller.instr."+c.op]; got != c.want {
			t.Errorf("%s issued %d times, want %d", c.op, got, c.want)
		}
	}
}
