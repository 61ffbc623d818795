package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	tests := []struct {
		in   Time
		ns   float64
		text string
	}{
		{500 * Picosecond, 0.5, "500ps"},
		{Nanosecond, 1, "1ns"},
		{20 * Nanosecond, 20, "20ns"},
		{600 * Nanosecond, 600, "600ns"},
		{Microsecond, 1000, "1µs"},
		{Millisecond, 1e6, "1ms"},
		{Second, 1e9, "1s"},
	}
	for _, tt := range tests {
		if got := tt.in.Nanoseconds(); got != tt.ns {
			t.Errorf("%d.Nanoseconds() = %v, want %v", int64(tt.in), got, tt.ns)
		}
		if got := tt.in.String(); got != tt.text {
			t.Errorf("%d.String() = %q, want %q", int64(tt.in), got, tt.text)
		}
	}
}

func TestFromNanoseconds(t *testing.T) {
	if got := FromNanoseconds(1.5); got != 1500*Picosecond {
		t.Errorf("FromNanoseconds(1.5) = %v ps, want 1500", int64(got))
	}
	if got := FromNanoseconds(0.0005); got != Picosecond {
		t.Errorf("FromNanoseconds(0.0005) = %v ps, want 1 (rounded)", int64(got))
	}
}

func TestClockConversions(t *testing.T) {
	tests := []struct {
		hz     int64
		period Time
	}{
		{1_000_000_000, Nanosecond},       // 1 GHz core
		{2_000_000_000, 500 * Picosecond}, // 2 GHz DAC
		{200_000_000, 5 * Nanosecond},     // 200 MHz SRAM
		{50_000_000, 20 * Nanosecond},     // 50 MHz FPGA build
	}
	for _, tt := range tests {
		c := NewClock(tt.hz)
		if got := c.Cycles(1000); got != 1000*tt.period {
			t.Errorf("Cycles(1000) = %v, want %v", got, 1000*tt.period)
		}
	}
}

func TestClockInvalid(t *testing.T) {
	for _, hz := range []int64{0, -5, 3} { // 3 Hz does not divide 1e12 ps
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%d) did not panic", hz)
				}
			}()
			NewClock(hz)
		}()
	}
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Nanosecond {
		t.Errorf("final time = %v, want 30ns", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOWithinTimestamp(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v, want FIFO", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var hits []Time
	e.Schedule(Nanosecond, func() {
		hits = append(hits, e.Now())
		e.Schedule(2*Nanosecond, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != Nanosecond || hits[1] != 3*Nanosecond {
		t.Errorf("hits = %v, want [1ns 3ns]", hits)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	var e Engine
	e.Schedule(10*Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("At(past) did not panic")
		}
	}()
	e.At(5*Nanosecond, func() {})
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("Schedule(-1) did not panic")
		}
	}()
	e.Schedule(-Nanosecond, func() {})
}

// Property: any randomly scheduled set of events executes in nondecreasing
// timestamp order, and the engine visits every event exactly once.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		var seen []Time
		for _, d := range delays {
			e.Schedule(Time(d)*Nanosecond, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: executed-event count is exact under nested random scheduling.
func TestEngineNestedCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var e Engine
		want := 0
		var spawn func(depth int)
		spawn = func(depth int) {
			want++
			e.Schedule(Time(rng.Intn(100))*Nanosecond, func() {
				if depth > 0 && rng.Intn(2) == 0 {
					spawn(depth - 1)
				}
			})
		}
		for i := 0; i < 20; i++ {
			spawn(3)
		}
		start := e.Executed()
		e.Run()
		// Nested spawns may have added more; recompute from want which is
		// incremented inside spawn at schedule time.
		if got := e.Executed() - start; got != uint64(want) {
			t.Fatalf("executed %d events, want %d", got, want)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97)*Nanosecond, func() {})
		}
		e.Run()
	}
}
