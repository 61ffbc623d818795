package trace

import (
	"strings"
	"testing"

	"qtenon/internal/sim"
)

func ns(n int64) sim.Time { return sim.Time(n) * sim.Nanosecond }

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Add("x", "y", 0, ns(10)) // must not panic
	if r.Len() != 0 || r.Busy("x") != 0 || r.Resources() != nil {
		t.Error("nil recorder not inert")
	}
}

func TestAddAndSpans(t *testing.T) {
	var r Recorder
	r.Add("host", "compile", ns(0), ns(10))
	r.Add("quantum", "shots", ns(10), ns(110))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	s := r.spans[1]
	if s.Resource != "quantum" || s.End-s.Start != ns(100) {
		t.Errorf("span = %+v", s)
	}
	// Reversed bounds are normalized.
	r.Add("host", "oops", ns(50), ns(40))
	last := r.spans[2]
	if last.Start != ns(40) || last.End != ns(50) {
		t.Errorf("reversed span not normalized: %+v", last)
	}
}

func TestBusyMergesOverlaps(t *testing.T) {
	var r Recorder
	r.Add("bus", "a", ns(0), ns(10))
	r.Add("bus", "b", ns(5), ns(20))  // overlaps a
	r.Add("bus", "c", ns(30), ns(40)) // disjoint
	r.Add("other", "x", ns(0), ns(100))
	if got := r.Busy("bus"); got != ns(30) {
		t.Errorf("Busy = %v, want 30ns", got)
	}
	if got := r.Busy("missing"); got != 0 {
		t.Errorf("Busy(missing) = %v", got)
	}
}

func TestResourcesOrder(t *testing.T) {
	var r Recorder
	r.Add("b", "", 0, 1)
	r.Add("a", "", 0, 1)
	r.Add("b", "", 2, 3)
	res := r.Resources()
	if len(res) != 2 || res[0] != "b" || res[1] != "a" {
		t.Errorf("Resources = %v", res)
	}
}

func TestRender(t *testing.T) {
	var r Recorder
	r.Add("host", "prep", ns(0), ns(25))
	r.Add("quantum", "run", ns(25), ns(100))
	out := r.Render(40)
	if !strings.Contains(out, "host") || !strings.Contains(out, "quantum") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Host lane is filled early, quantum late.
	hostLane := lines[1][strings.Index(lines[1], "|")+1:]
	quantumLane := lines[2][strings.Index(lines[2], "|")+1:]
	if hostLane[0] != '#' {
		t.Errorf("host lane not filled at start: %q", hostLane)
	}
	if quantumLane[0] == '#' {
		t.Errorf("quantum lane filled at start: %q", quantumLane)
	}
	if !strings.Contains(quantumLane, "#") {
		t.Errorf("quantum lane empty: %q", quantumLane)
	}
}

func TestRenderEmpty(t *testing.T) {
	var r Recorder
	if out := r.Render(40); !strings.Contains(out, "no spans") {
		t.Errorf("empty render = %q", out)
	}
}

func TestRenderZeroDurationTimeline(t *testing.T) {
	var r Recorder
	r.Add("x", "", ns(5), ns(5))
	out := r.Render(5) // also exercises the width clamp
	if !strings.Contains(out, "x") {
		t.Errorf("render = %q", out)
	}
}
