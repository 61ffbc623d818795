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

// The optimized Busy must agree with the naive reference on a large,
// overlapping, out-of-order trace — and stay correct across interleaved
// Add calls that invalidate the memo.
func TestBusyMatchesNaiveOnLargeTrace(t *testing.T) {
	r := buildTrace(5000, 8)
	for i := 0; i < 8; i++ {
		res := fmt.Sprintf("res%d", i)
		if got, want := r.Busy(res), naiveBusy(r, res); got != want {
			t.Errorf("Busy(%s) = %v, want %v", res, got, want)
		}
	}
	// Invalidate one resource's memo and re-check all lanes.
	r.Add("res3", "late", 0, sim.Time(5000*10+100))
	for i := 0; i < 8; i++ {
		res := fmt.Sprintf("res%d", i)
		if got, want := r.Busy(res), naiveBusy(r, res); got != want {
			t.Errorf("after Add: Busy(%s) = %v, want %v", res, got, want)
		}
	}
}

// BenchmarkBusy queries every lane of a 5000-span trace repeatedly —
// the Render access pattern. The indexed/memoized implementation pays
// one sort per lane and then serves from cache.
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

// BenchmarkBusyInterleaved alternates Add and Busy, the worst case for
// the memo (every query recomputes one lane) — still bounded by the
// per-resource index instead of the full span list.
func BenchmarkBusyInterleaved(b *testing.B) {
	r := buildTrace(5000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := fmt.Sprintf("res%d", i%8)
		r.Add(res, "op", sim.Time(i), sim.Time(i+10))
		_ = r.Busy(res)
	}
}
