package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// --- Closure retention ----------------------------------------------------

// Popped events must not keep their closures reachable through the
// queue's backing array: after the events run, the captured allocations
// must be collectable even though the engine (and its storage) lives on.
func TestEngineDoesNotRetainExecutedClosures(t *testing.T) {
	var e Engine
	const n = 64
	collected := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		payload := new([1 << 16]byte)
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { collected <- struct{}{} })
		e.Schedule(Time(i%3)*Nanosecond, func() { payload[0]++ })
	}
	e.Run()
	// The engine is still alive and still owns its backing slice; only
	// the fn slots were cleared. Give the collector a few cycles.
	got := 0
	for cycle := 0; cycle < 20 && got < n; cycle++ {
		runtime.GC()
		for {
			select {
			case <-collected:
				got++
				continue
			default:
			}
			break
		}
	}
	runtime.KeepAlive(&e)
	if got < n {
		t.Errorf("only %d/%d executed closures were collectable; the queue retains them", got, n)
	}
}

// --- Zero-allocation hot path --------------------------------------------

// Schedule and Step are amortized zero-allocation once the backing
// storage has grown: the steady-state schedule/run cycle of a warmed
// engine allocates nothing.
func TestEngineScheduleStepZeroAllocAmortized(t *testing.T) {
	var e Engine
	fn := func() {}
	warm := func() {
		for j := 0; j < 512; j++ {
			e.Schedule(Time(j%17)*Nanosecond, fn)
		}
		for e.Step() {
		}
	}
	warm() // grow the heap to steady-state capacity
	if avg := testing.AllocsPerRun(50, warm); avg != 0 {
		t.Errorf("schedule/step cycle allocates %.1f times per run, want 0", avg)
	}
}

// --- Heavy interleaved load stays ordered ---------------------------------

// Events scheduled from inside running events, often at the timestamp
// being drained, still execute in nondecreasing time and none is lost.
func TestEngineInterleavedBurstOrdering(t *testing.T) {
	var e Engine
	rng := rand.New(rand.NewSource(42))
	var last Time
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		at := e.Now() + Time(rng.Intn(3))*Nanosecond
		count++
		e.At(at, func() {
			if e.Now() < last {
				t.Fatalf("time went backwards: %v after %v", e.Now(), last)
			}
			last = e.Now()
			if depth > 0 && rng.Intn(3) > 0 {
				spawn(depth - 1) // often lands on the current timestamp
			}
		})
	}
	for i := 0; i < 200; i++ {
		spawn(4)
	}
	start := e.Executed()
	e.Run()
	if got := int(e.Executed() - start); got != count {
		t.Fatalf("executed %d events, want %d", got, count)
	}
}

// --- Benchmarks -----------------------------------------------------------

// BenchmarkEngineSchedule measures the push path alone on a warmed
// engine (0 allocs/op amortized).
func BenchmarkEngineSchedule(b *testing.B) {
	var e Engine
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%97)*Nanosecond, fn)
		if e.Pending() >= 4096 {
			b.StopTimer()
			for e.Step() {
			}
			b.StartTimer()
		}
	}
}

// BenchmarkEngineStep measures the pop/dispatch path (0 allocs/op
// amortized): each iteration schedules and executes one event against a
// standing backlog of 1024 heap entries.
func BenchmarkEngineStep(b *testing.B) {
	var e Engine
	fn := func() {}
	for j := 0; j < 1024; j++ {
		e.Schedule(Time(j%31)*Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%31)*Nanosecond, fn)
		e.Step()
	}
}
