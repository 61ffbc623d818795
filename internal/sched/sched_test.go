package sched

import (
	"testing"
	"testing/quick"

	"qtenon/internal/sim"
)

func TestBatchInterval(t *testing.T) {
	// The paper's setup: 256-bit bus, 64 qubits → K = 4 shots/transfer.
	if k := BatchInterval(256, 64); k != 4 {
		t.Errorf("K(256,64) = %d, want 4", k)
	}
	if k := BatchInterval(256, 8); k != 32 {
		t.Errorf("K(256,8) = %d, want 32", k)
	}
	// More qubits than bus bits: clamp to 1.
	if k := BatchInterval(256, 320); k != 1 {
		t.Errorf("K(256,320) = %d, want 1", k)
	}
}

func TestPlanBatches(t *testing.T) {
	got := PlanBatches(10, 4)
	want := []int{4, 4, 2}
	if len(got) != len(want) {
		t.Fatalf("batches = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batches = %v, want %v", got, want)
		}
	}
	if PlanBatches(0, 4) != nil {
		t.Error("zero shots produced batches")
	}
	if got := PlanBatches(3, 10); len(got) != 1 || got[0] != 3 {
		t.Errorf("remainder-only plan = %v", got)
	}
	// Figure 13's plan, 500 shots at K = 4, is one allocation.
	if a := testing.AllocsPerRun(5, func() { PlanBatches(500, 4) }); a != 1 {
		t.Errorf("PlanBatches(500, 4) allocates %.0f times, want 1", a)
	}
}

// Property: every shot is transmitted exactly once, no batch exceeds K.
func TestPlanBatchesCompleteProperty(t *testing.T) {
	f := func(shots, k uint8) bool {
		s, kk := int(shots%200)+1, int(k%16)+1
		plan := PlanBatches(s, kk)
		total := 0
		for _, b := range plan {
			if b <= 0 || b > kk {
				return false
			}
			total += b
		}
		// All full batches except possibly the last.
		for i := 0; i < len(plan)-1; i++ {
			if plan[i] != kk {
				return false
			}
		}
		return total == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func baseInput(mode SyncMode) TimelineInput {
	return TimelineInput{
		Mode:             mode,
		HostPrep:         2 * sim.Microsecond,
		CommPrep:         100 * sim.Nanosecond,
		PulsePrep:        5 * sim.Microsecond,
		ShotTime:         sim.Microsecond,
		Batches:          PlanBatches(100, 4),
		TransferPerBatch: 30 * sim.Nanosecond,
		HostPerShot:      100 * sim.Nanosecond,
		HostPerBatch:     200 * sim.Nanosecond,
		HostTail:         3 * sim.Microsecond,
	}
}

func TestComputeQuantumTime(t *testing.T) {
	for _, mode := range []SyncMode{FENCE, FineGrained} {
		tl := Compute(baseInput(mode))
		if tl.Quantum != 100*sim.Microsecond {
			t.Errorf("%v: quantum = %v, want 100µs", mode, tl.Quantum)
		}
		if tl.Total < tl.Quantum {
			t.Errorf("%v: total %v < quantum %v", mode, tl.Total, tl.Quantum)
		}
	}
}

func TestFineGrainedBeatsFENCE(t *testing.T) {
	fence := Compute(baseInput(FENCE))
	fine := Compute(baseInput(FineGrained))
	if fine.Total >= fence.Total {
		t.Errorf("fine-grained total %v not below FENCE %v", fine.Total, fence.Total)
	}
	if fine.Exposed() >= fence.Exposed() {
		t.Errorf("fine-grained exposed %v not below FENCE %v", fine.Exposed(), fence.Exposed())
	}
}

func TestFENCESerializesEverything(t *testing.T) {
	in := baseInput(FENCE)
	tl := Compute(in)
	// FENCE: total = prep + quantum + all transfers + all host work + tail.
	batches := sim.Time(len(in.Batches))
	want := in.HostPrep + in.CommPrep + in.PulsePrep +
		tl.Quantum +
		batches*in.TransferPerBatch +
		100*in.HostPerShot + batches*in.HostPerBatch +
		in.HostTail
	if tl.Total != want {
		t.Errorf("FENCE total = %v, want %v", tl.Total, want)
	}
}

func TestFineGrainedHidesHostWorkUnderQuantum(t *testing.T) {
	// Host batch work far smaller than shot time: everything except the
	// last batch's processing hides under the quantum shadow.
	in := baseInput(FineGrained)
	tl := Compute(in)
	lastBatch := in.Batches[len(in.Batches)-1]
	expectedTail := in.TransferPerBatch + sim.Time(lastBatch)*in.HostPerShot + in.HostPerBatch + in.HostTail
	wantTotal := in.HostPrep + in.CommPrep + in.PulsePrep + tl.Quantum + expectedTail
	if tl.Total != wantTotal {
		t.Errorf("fine-grained total = %v, want %v", tl.Total, wantTotal)
	}
}

func TestExposedDecomposition(t *testing.T) {
	for _, mode := range []SyncMode{FENCE, FineGrained} {
		tl := Compute(baseInput(mode))
		if got := tl.Quantum + tl.Exposed(); got != tl.Total {
			t.Errorf("%v: quantum+exposed = %v, total = %v", mode, got, tl.Total)
		}
	}
}

func TestCommActivityCountsAllBatches(t *testing.T) {
	in := baseInput(FineGrained)
	tl := Compute(in)
	want := in.CommPrep + sim.Time(len(in.Batches))*in.TransferPerBatch
	if tl.CommActivity != want {
		t.Errorf("CommActivity = %v, want %v", tl.CommActivity, want)
	}
}

func TestSlowHostBleedsPastQuantum(t *testing.T) {
	// Host per-shot cost exceeding shot time cannot hide: exposed host
	// grows with shot count even under fine-grained sync.
	in := baseInput(FineGrained)
	in.HostPerShot = 3 * sim.Microsecond
	tl := Compute(in)
	if tl.ExposedHost < 100*sim.Microsecond {
		t.Errorf("slow host exposed = %v, want > 100µs", tl.ExposedHost)
	}
}

// Property: fine-grained total ≤ FENCE total for any workload shape, and
// both are ≥ prep + quantum.
func TestModeOrderingProperty(t *testing.T) {
	f := func(shotsU, kU, shotNsU, hostNsU, xferNsU uint16) bool {
		shots := int(shotsU%300) + 1
		k := int(kU%8) + 1
		in := TimelineInput{
			HostPrep:         sim.Time(hostNsU%1000) * sim.Nanosecond,
			CommPrep:         sim.Time(xferNsU%100) * sim.Nanosecond,
			PulsePrep:        sim.Time(kU%50) * sim.Nanosecond,
			ShotTime:         sim.Time(shotNsU%2000+1) * sim.Nanosecond,
			Batches:          PlanBatches(shots, k),
			TransferPerBatch: sim.Time(xferNsU%200) * sim.Nanosecond,
			HostPerShot:      sim.Time(hostNsU%300) * sim.Nanosecond,
			HostPerBatch:     sim.Time(hostNsU%150) * sim.Nanosecond,
			HostTail:         sim.Time(shotNsU%500) * sim.Nanosecond,
		}
		in.Mode = FENCE
		fence := Compute(in)
		in.Mode = FineGrained
		fine := Compute(in)
		floor := in.HostPrep + in.CommPrep + in.PulsePrep + fine.Quantum
		return fine.Total <= fence.Total &&
			fine.Total >= floor && fence.Total >= floor &&
			fine.Quantum == fence.Quantum &&
			fine.Quantum+fine.Exposed() == fine.Total &&
			fence.Quantum+fence.Exposed() == fence.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestBatchingReducesPerBatchOverheadTotal(t *testing.T) {
	// Figure 16(b): batched transmission vs per-shot transmission. The
	// per-delivery handling cost dominates when every shot ships alone.
	batched := baseInput(FineGrained)
	unbatched := baseInput(FineGrained)
	unbatched.Batches = PlanBatches(100, 1)
	// Make host work the bottleneck so the difference is visible.
	batched.HostPerBatch = 2 * sim.Microsecond
	unbatched.HostPerBatch = 2 * sim.Microsecond
	b := Compute(batched)
	u := Compute(unbatched)
	if b.ExposedHost >= u.ExposedHost {
		t.Errorf("batched exposed host %v not below unbatched %v", b.ExposedHost, u.ExposedHost)
	}
}
