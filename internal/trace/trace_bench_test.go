package trace

import (
	"fmt"
	"sort"
	"testing"

	"qtenon/internal/sim"
)

// naiveBusy reimplements the pre-index Busy algorithm — filter every
// span by resource, sort, merge — as the benchmark reference.
func naiveBusy(r *Recorder, resource string) sim.Time {
	var filtered []Span
	for _, s := range r.spans {
		if s.Resource == resource {
			filtered = append(filtered, s)
		}
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Start < filtered[j].Start })
	var busy sim.Time
	var curEnd sim.Time = -1
	var curStart sim.Time
	for _, s := range filtered {
		if curEnd < 0 || s.Start > curEnd {
			if curEnd >= 0 {
				busy += curEnd - curStart
			}
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	if curEnd >= 0 {
		busy += curEnd - curStart
	}
	return busy
}

func buildTrace(spans, resources int) *Recorder {
	r := &Recorder{}
	for i := 0; i < spans; i++ {
		res := fmt.Sprintf("res%d", i%resources)
		// Deterministic pseudo-scatter: overlapping, out-of-order starts.
		start := sim.Time((i * 7919) % (spans * 10))
		r.Add(res, "op", start, start+25)
	}
	return r
}

// The indexed Busy must agree with the naive reference on a large,
// overlapping, out-of-order trace, before and after a late Add.
func TestBusyMatchesNaiveOnLargeTrace(t *testing.T) {
	r := buildTrace(5000, 8)
	for i := 0; i < 8; i++ {
		res := fmt.Sprintf("res%d", i)
		if got, want := r.Busy(res), naiveBusy(r, res); got != want {
			t.Errorf("Busy(%s) = %v, want %v", res, got, want)
		}
	}
	// Add a span to one lane and re-check all lanes.
	r.Add("res3", "late", 0, sim.Time(5000*10+100))
	for i := 0; i < 8; i++ {
		res := fmt.Sprintf("res%d", i)
		if got, want := r.Busy(res), naiveBusy(r, res); got != want {
			t.Errorf("after Add: Busy(%s) = %v, want %v", res, got, want)
		}
	}
}

// BenchmarkBusy queries every lane of a 5000-span trace once per
// iteration, the Render access pattern. The indexed implementation
// sorts only the queried lane's spans.
func BenchmarkBusy(b *testing.B) {
	r := buildTrace(5000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			_ = r.Busy(fmt.Sprintf("res%d", k))
		}
	}
}

// BenchmarkBusyNaive is the pre-index algorithm on the same trace and
// access pattern, for comparison.
func BenchmarkBusyNaive(b *testing.B) {
	r := buildTrace(5000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			_ = naiveBusy(r, fmt.Sprintf("res%d", k))
		}
	}
}
