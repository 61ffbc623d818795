package metrics

import (
	"reflect"
	"sync"
	"testing"
)

// Nil registries and nil instruments must be silent no-ops: instrumented
// code attaches handles once and never nil-checks afterwards.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x.count")
	g := r.Gauge("x.gauge")
	tm := r.Timer("x.timer")
	if c != nil || g != nil || tm != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(9)
	tm.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || tm.Count() != 0 || tm.Total() != 0 {
		t.Error("nil instruments reported non-zero values")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Timers) != 0 {
		t.Error("nil registry produced a non-empty snapshot")
	}
}

func TestZeroValueRegistryReady(t *testing.T) {
	var r Registry
	r.Counter("a.n").Add(3)
	if got := r.Counter("a.n").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
}

func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name resolved to different counters")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("same name resolved to different gauges")
	}
	if r.Timer("x") != r.Timer("x") {
		t.Error("same name resolved to different timers")
	}
}

func TestGaugeHighWater(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("q.depth")
	for _, v := range []int64{3, 7, 2, 5} {
		g.Set(v)
	}
	if g.Value() != 5 {
		t.Errorf("value = %d, want 5 (last set)", g.Value())
	}
	if g.High() != 7 {
		t.Errorf("high = %d, want 7", g.High())
	}
}

func TestTimerAccumulates(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("host.prep")
	tm.Observe(100)
	tm.Observe(250)
	if tm.Count() != 2 || tm.Total() != 350 {
		t.Errorf("timer = (%d, %d), want (2, 350)", tm.Count(), tm.Total())
	}
}

// Snapshots of the same state must be identical, including their JSON
// serialization (encoding/json sorts map keys).
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("slt.hits").Add(10)
		r.Counter("tilelink.beats_issued").Add(4)
		r.Gauge("sim.heap_depth").Set(6)
		r.Timer("host.prep_ps").Observe(1234)
		return r
	}
	a, b := build().Snapshot(), build().Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("JSON serialization not deterministic:\n%s\n%s", ja, jb)
	}
	wantNames := []string{"host.prep_ps", "sim.heap_depth", "slt.hits", "tilelink.beats_issued"}
	if got := a.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("Names() = %v, want %v", got, wantNames)
	}
}

// Snapshot must not alias live state: mutations after the snapshot stay
// invisible.
func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	snap := r.Snapshot()
	r.Counter("c").Add(41)
	if snap.Counters["c"] != 1 {
		t.Errorf("snapshot tracked later mutation: %d", snap.Counters["c"])
	}
}

// Two registries never share instruments — the isolation contract
// factory-minted backends rely on when sweeps run grid points
// concurrently. Run with -race.
func TestConcurrentInstanceIsolation(t *testing.T) {
	regs := [2]*Registry{NewRegistry(), NewRegistry()}
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r *Registry) {
			defer wg.Done()
			n := int64(i+1) * 1000
			for k := int64(0); k < n; k++ {
				r.Counter("shared.name").Inc()
				r.Gauge("shared.gauge").Set(k)
				r.Timer("shared.timer").Observe(1)
			}
		}(i, r)
	}
	wg.Wait()
	for i, r := range regs {
		want := int64(i+1) * 1000
		if got := r.Counter("shared.name").Value(); got != want {
			t.Errorf("registry %d counter = %d, want %d (cross-instance sharing?)", i, got, want)
		}
		if got := r.Timer("shared.timer").Count(); got != want {
			t.Errorf("registry %d timer count = %d, want %d", i, got, want)
		}
		if got := r.Gauge("shared.gauge").High(); got != want-1 {
			t.Errorf("registry %d gauge high = %d, want %d", i, got, want-1)
		}
	}
}

// A single registry's instruments must be race-safe when one machine is
// observed while running (snapshots concurrent with updates).
func TestConcurrentUpdatesOneRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				r.Counter("c").Inc()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 2000 {
		t.Errorf("counter = %d, want 2000", got)
	}
}
