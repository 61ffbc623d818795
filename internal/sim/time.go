// Package sim provides the Qtenon reproduction's simulated time: a
// picosecond-resolution Time, the Clock every timed component uses to
// convert between cycle counts and simulated time, and a discrete-event
// Engine.
//
// The engine is deliberately minimal. Of the machine models only
// internal/system schedules on it, laying out each evaluation's phases
// as at most six events; the bus model is a cycle-stepped loop and the
// pipeline model a per-item recurrence. Callers schedule closures at
// absolute or relative virtual times and the engine executes them in
// timestamp order. Determinism is guaranteed by a monotonically
// increasing sequence number that breaks timestamp ties in FIFO order,
// so repeated runs with the same seed produce identical traces.
package sim

import "fmt"

// Time is a point (or span) of simulated time measured in picoseconds.
//
// Picoseconds are fine enough to represent the 2 GHz DAC clock (500 ps
// period) and the 1 GHz core clock (1 ns period) without rounding, while
// int64 still spans ±106 days — far beyond any experiment in the paper.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an auto-selected unit, e.g. "14.2µs".
func (t Time) String() string {
	switch abs := max(t, -t); {
	case abs < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case abs < Microsecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	case abs < Millisecond:
		return fmt.Sprintf("%.4gµs", t.Microseconds())
	case abs < Second:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromNanoseconds converts a floating-point nanosecond count to Time,
// rounding to the nearest picosecond. The product is rounded before the
// half is added, so that no GOARCH fuses the two (DESIGN.md §11.2).
func FromNanoseconds(ns float64) Time { return Time(float64(ns*float64(Nanosecond)) + 0.5) }

// Clock converts between cycle counts and simulated time for a component
// running at a fixed frequency. The zero Clock is invalid; use NewClock.
type Clock struct {
	period Time // duration of one cycle
}

// NewClock returns a clock with the given frequency in hertz.
// The frequency must evenly divide one second's worth of picoseconds
// (true for all frequencies used in the paper: 1 GHz, 2 GHz, 200 MHz…).
func NewClock(hz int64) Clock {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock frequency %d", hz))
	}
	if int64(Second)%hz != 0 {
		panic(fmt.Sprintf("sim: clock frequency %d Hz does not divide 1s evenly", hz))
	}
	return Clock{period: Time(int64(Second) / hz)}
}

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.period }

// CyclesFloat converts a fractional cycle count to a duration,
// truncating to the enclosing picosecond — the bridge for rate-derived
// counts like instructions/IPC, so callers never multiply raw cycle
// floats by the clock period themselves.
func (c Clock) CyclesFloat(n float64) Time { return Time(n * float64(c.period)) }
