// Package metrics is the system-wide instrumentation registry: named
// counters, gauges (with high-water marks), and timers that every
// hardware and software layer of the reproduction reports into — the
// simulation kernel, the TileLink bus, the skip lookup table, the pulse
// pipeline, the controller instruction stream, and the host model.
//
// Design rules, mirrored from trace.Recorder:
//
//   - The zero Registry is ready to use; a nil *Registry is a valid
//     no-op sink that hands out nil instruments, and every instrument
//     method is nil-safe, so instrumented code never nil-checks.
//   - Instruments are resolved by name once (at attach time) and then
//     updated through the returned handle, keeping hot paths cheap.
//   - Names follow `component.metric` (e.g. "slt.hits",
//     "tilelink.beats_issued", "controller.instr.q_update"): the
//     component prefix, everything before the first dot, names the
//     layer that reports the instrument.
//   - Registries are never shared between machine instances: each
//     factory-minted backend owns its own, so concurrent sweeps stay
//     isolated. Instruments are individually race-safe regardless.
//   - Counters only grow and timers observe non-negative durations.
//     No code checks this: every instrument of a golden machine is in
//     the snapshot whose digest internal/backend's goldens pin, so a
//     negative delta fails TestGoldenEquivalence.
package metrics

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing accumulator.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by d, which must not be negative. Calling
// on a nil counter is a no-op.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the accumulated count; zero on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks an instantaneous level and its high-water mark.
type Gauge struct {
	v, high atomic.Int64
}

// Set records the current level and lifts the high-water mark if the
// level exceeds it. Calling on a nil gauge is a no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			break
		}
	}
}

// Value reports the last level set; zero on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High reports the high-water mark; zero on a nil gauge.
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// Timer accumulates durations. The unit is the caller's (Qtenon layers
// observe sim.Time picoseconds); the registry only sums and counts.
type Timer struct {
	count, total atomic.Int64
}

// Observe adds one duration sample, which must not be negative. Calling
// on a nil timer is a no-op.
func (t *Timer) Observe(d int64) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.total.Add(d)
}

// Count reports the number of samples; zero on a nil timer.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total reports the summed durations; zero on a nil timer.
func (t *Timer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Registry is a named collection of instruments. The zero Registry is
// ready; a nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, which is a valid no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use. Nil-safe.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timers == nil {
		r.timers = make(map[string]*Timer)
	}
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// GaugeValue is a gauge's state in a snapshot.
type GaugeValue struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// TimerValue is a timer's state in a snapshot.
type TimerValue struct {
	Count int64 `json:"count"`
	Total int64 `json:"total"`
}

// Snapshot is a point-in-time copy of every instrument. Map keys are
// instrument names; JSON marshaling sorts keys, so serialization is
// deterministic.
type Snapshot struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]GaugeValue `json:"gauges,omitempty"`
	Timers   map[string]TimerValue `json:"timers,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields
// the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeValue, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = GaugeValue{Value: g.Value(), High: g.High()}
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerValue, len(r.timers))
		for n, t := range r.timers {
			s.Timers[n] = TimerValue{Count: t.Count(), Total: t.Total()}
		}
	}
	return s
}

// Names lists every instrument name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Timers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON renders the snapshot as indented JSON with deterministic key
// order (encoding/json sorts map keys).
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }
