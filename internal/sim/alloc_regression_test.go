package sim

import "testing"

// Alloc-regression benches. CI runs `-bench=Alloc -benchtime=1x`: these
// fail the build (not just report a number) when the engine hot path
// regains an allocation, so a stray closure capture or slice growth in
// Schedule/Step cannot land silently.

// BenchmarkEngineScheduleStepAllocFree asserts the steady-state
// schedule/step cycle of a warmed engine is allocation-free.
func BenchmarkEngineScheduleStepAllocFree(b *testing.B) {
	var e Engine
	fn := func() {}
	cycle := func() {
		for j := 0; j < 512; j++ {
			e.Schedule(Time(j%17)*Nanosecond, fn)
		}
		for e.Step() {
		}
	}
	cycle() // grow the heap to steady-state capacity
	for i := 0; i < b.N; i++ {
		if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
			b.Fatalf("warmed schedule/step cycle allocates %.1f times per run, want 0", avg)
		}
	}
}
