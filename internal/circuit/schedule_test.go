package circuit

import (
	"math/rand"
	"testing"

	"qtenon/internal/sim"
)

func TestDefaultTiming(t *testing.T) {
	tm := DefaultTiming()
	if tm.OneQubit != 20*sim.Nanosecond || tm.TwoQubit != 40*sim.Nanosecond || tm.Measure != 600*sim.Nanosecond {
		t.Errorf("DefaultTiming = %+v, want paper values 20/40/600ns", tm)
	}
	if d := tm.GateDuration(H); d != 20*sim.Nanosecond {
		t.Errorf("GateDuration(H) = %v", d)
	}
	if d := tm.GateDuration(CX); d != 40*sim.Nanosecond {
		t.Errorf("GateDuration(CX) = %v", d)
	}
	if d := tm.GateDuration(Measure); d != 600*sim.Nanosecond {
		t.Errorf("GateDuration(Measure) = %v", d)
	}
}

func TestScheduleSequentialOnOneQubit(t *testing.T) {
	c := NewBuilder(1).H(0).RX(0, 1).Measure(0).MustBuild()
	s := ScheduleASAP(c, DefaultTiming())
	want := []sim.Time{0, 20 * sim.Nanosecond, 40 * sim.Nanosecond}
	for i, w := range want {
		if s.Start[i] != w {
			t.Errorf("gate %d start = %v, want %v", i, s.Start[i], w)
		}
	}
	if s.Duration != 640*sim.Nanosecond {
		t.Errorf("Duration = %v, want 640ns", s.Duration)
	}
	if s.Depth != 3 {
		t.Errorf("Depth = %d, want 3", s.Depth)
	}
}

func TestScheduleParallelQubits(t *testing.T) {
	// H on q0 and q1 run concurrently; CX must wait for both.
	c := NewBuilder(2).H(0).H(1).CX(0, 1).MustBuild()
	s := ScheduleASAP(c, DefaultTiming())
	if s.Start[0] != 0 || s.Start[1] != 0 {
		t.Errorf("independent gates not parallel: starts %v, %v", s.Start[0], s.Start[1])
	}
	if s.Start[2] != 20*sim.Nanosecond {
		t.Errorf("CX start = %v, want 20ns", s.Start[2])
	}
	if s.Duration != 60*sim.Nanosecond {
		t.Errorf("Duration = %v, want 60ns", s.Duration)
	}
	if s.Depth != 2 {
		t.Errorf("Depth = %d, want 2", s.Depth)
	}
}

func TestScheduleTwoQubitChainDependency(t *testing.T) {
	// CX(0,1) then CX(1,2): second depends on first through q1;
	// CX(3,4) is independent and starts at 0.
	c := NewBuilder(5).CX(0, 1).CX(1, 2).CX(3, 4).MustBuild()
	s := ScheduleASAP(c, DefaultTiming())
	if s.Start[1] != 40*sim.Nanosecond {
		t.Errorf("dependent CX start = %v, want 40ns", s.Start[1])
	}
	if s.Start[2] != 0 {
		t.Errorf("independent CX start = %v, want 0", s.Start[2])
	}
}

func TestDurationScalesWithLayers(t *testing.T) {
	tm := DefaultTiming()
	one := NewBuilder(4)
	two := NewBuilder(4)
	for q := 0; q < 4; q++ {
		one.RX(q, 1)
		two.RX(q, 1)
		two.RX(q, 2)
	}
	d1 := Duration(one.MustBuild(), tm)
	d2 := Duration(two.MustBuild(), tm)
	if d2 != 2*d1 {
		t.Errorf("two layers = %v, want double %v", d2, d1)
	}
}

// TestDurationMatchesSchedule checks Duration against the end of the
// full ASAP schedule on random circuits of 1–70 qubits under random gate
// times, and that it allocates nothing up to 64 qubits, where its
// per-qubit free times fit its stack buffer.
func TestDurationMatchesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(70)
		c := New(n)
		for g := rng.Intn(200); g > 0; g-- {
			k := Kind(rng.Intn(int(numKinds)))
			q := rng.Intn(n)
			q2 := q
			if k.Arity() == 2 {
				if n == 1 {
					continue
				}
				for q2 == q {
					q2 = rng.Intn(n)
				}
			}
			c.Gates = append(c.Gates, Gate{Kind: k, Qubit: q, Qubit2: q2, Param: NoParam})
		}
		tm := Timing{
			OneQubit: sim.Time(rng.Intn(50)),
			TwoQubit: sim.Time(rng.Intn(100)),
			Measure:  sim.Time(rng.Intn(1000)),
		}
		if trial%4 == 0 {
			tm = DefaultTiming()
		}
		want := ScheduleASAP(c, tm).Duration
		if got := Duration(c, tm); got != want {
			t.Fatalf("trial %d (%d qubits, %d gates): Duration = %v, schedule says %v", trial, n, len(c.Gates), got, want)
		}
		if n <= 64 {
			if allocs := testing.AllocsPerRun(3, func() { Duration(c, tm) }); allocs != 0 {
				t.Fatalf("trial %d: Duration allocates %.0f times at %d qubits", trial, allocs, n)
			}
		}
	}
}
