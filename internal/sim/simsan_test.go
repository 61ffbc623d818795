//go:build simsan

package sim

import (
	"strings"
	"testing"
)

// These tests corrupt an Engine's internals directly — the only way to
// trip the sanitizer, since every public entry point guards the same
// invariants — and assert the panic names the engine, not just the
// symptom.

func sanMustPanic(t *testing.T, fragments []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a simsan panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not the simsan message string", r)
		}
		for _, frag := range fragments {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q does not contain %q", msg, frag)
			}
		}
	}()
	f()
}

func TestSimsanCausalityViolation(t *testing.T) {
	var e Engine
	e.heap.push(event{at: 5, seq: 1, fn: func() {}})
	e.now = 10 // corrupt: the clock claims to be past the pending event
	sanMustPanic(t, []string{"simsan: sim.Engine:", "causality violation", "t=5", "now=10"}, func() {
		e.Step()
	})
}

// TestSimsanCleanRun pins that an uncorrupted engine passes the audits:
// the sanitizer must not fire on legal schedules, including events
// scheduled from inside a running event at its own timestamp.
func TestSimsanCleanRun(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(10, func() {
		order = append(order, 1)
		e.At(e.Now(), func() { order = append(order, 2) }) // same-timestamp burst
		e.Schedule(5, func() { order = append(order, 3) })
	})
	e.Run()
	if len(order) != 3 {
		t.Fatalf("executed %v, want 3 events", order)
	}
}
