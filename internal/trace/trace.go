// Package trace records spans of simulated time per hardware resource
// and renders them as a text timeline — the observability layer for the
// system model. A span is (resource, label, start, end); the renderer
// draws one lane per resource, which makes overlap (or its absence,
// under FENCE) directly visible, the way Figure 9 draws it.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"qtenon/internal/sim"
)

// Span is one timed activity on a resource lane.
type Span struct {
	Resource string
	Label    string
	Start    sim.Time
	End      sim.Time
}

// Recorder accumulates spans. The zero Recorder is ready; a nil
// *Recorder is a valid no-op sink, so instrumented code never needs nil
// checks.
//
// Spans are indexed per resource as they arrive, and per-resource busy
// time is memoized, so Busy and Render stay cheap on multi-thousand-span
// traces instead of re-scanning and re-sorting the full span list on
// every call.
type Recorder struct {
	spans []Span
	// byResource holds each resource's span indices in insertion order;
	// order lists resources in first-seen order.
	byResource map[string][]int
	order      []string
	// busy memoizes Busy per resource; an entry is valid while its n
	// still matches the resource's span count.
	busy map[string]busyEntry
}

type busyEntry struct {
	n    int
	busy sim.Time
}

// Add records a span. Calling on a nil recorder is a no-op.
func (r *Recorder) Add(resource, label string, start, end sim.Time) {
	if r == nil {
		return
	}
	if end < start {
		start, end = end, start
	}
	if r.byResource == nil {
		r.byResource = make(map[string][]int)
	}
	if _, seen := r.byResource[resource]; !seen {
		r.order = append(r.order, resource)
	}
	r.byResource[resource] = append(r.byResource[resource], len(r.spans))
	r.spans = append(r.spans, Span{Resource: resource, Label: label, Start: start, End: end})
}

// Len reports the span count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Busy sums the time a resource was occupied (overlapping spans on the
// same resource are merged first). The result is memoized per resource
// and recomputed only after new spans land on that resource, so repeated
// queries — the Render pattern — are O(1).
func (r *Recorder) Busy(resource string) sim.Time {
	if r == nil {
		return 0
	}
	idxs := r.byResource[resource]
	if e, ok := r.busy[resource]; ok && e.n == len(idxs) {
		return e.busy
	}
	starts := make([]sim.Time, len(idxs))
	ends := make([]sim.Time, len(idxs))
	for i, k := range idxs {
		starts[i], ends[i] = r.spans[k].Start, r.spans[k].End
	}
	sort.Sort(&intervalsByStart{starts, ends})
	var busy sim.Time
	var curEnd sim.Time = -1
	var curStart sim.Time
	for i := range starts {
		if curEnd < 0 || starts[i] > curEnd {
			if curEnd >= 0 {
				busy += curEnd - curStart
			}
			curStart, curEnd = starts[i], ends[i]
		} else if ends[i] > curEnd {
			curEnd = ends[i]
		}
	}
	if curEnd >= 0 {
		busy += curEnd - curStart
	}
	if r.busy == nil {
		r.busy = make(map[string]busyEntry)
	}
	r.busy[resource] = busyEntry{n: len(idxs), busy: busy}
	return busy
}

// intervalsByStart sorts parallel (start, end) slices by start time.
type intervalsByStart struct {
	starts []sim.Time
	ends   []sim.Time
}

func (v *intervalsByStart) Len() int           { return len(v.starts) }
func (v *intervalsByStart) Less(i, j int) bool { return v.starts[i] < v.starts[j] }
func (v *intervalsByStart) Swap(i, j int) {
	v.starts[i], v.starts[j] = v.starts[j], v.starts[i]
	v.ends[i], v.ends[j] = v.ends[j], v.ends[i]
}

// Resources lists resources in first-seen order.
func (r *Recorder) Resources() []string {
	if r == nil || len(r.order) == 0 {
		return nil
	}
	return append([]string(nil), r.order...)
}

// Render draws a fixed-width timeline, one lane per resource:
//
//	host    |██░░░░░░██          | 2 spans, busy 40ns
//	quantum |    ████████████    | 1 span, busy 120ns
//
// width is the number of timeline columns (≥ 10).
func (r *Recorder) Render(width int) string {
	if r.Len() == 0 {
		return "(no spans recorded)\n"
	}
	if width < 10 {
		width = 10
	}
	var tmin, tmax sim.Time
	first := true
	for _, s := range r.spans {
		if first || s.Start < tmin {
			tmin = s.Start
		}
		if first || s.End > tmax {
			tmax = s.End
		}
		first = false
	}
	span := tmax - tmin
	if span <= 0 {
		span = 1
	}
	col := func(t sim.Time) int {
		c := int(int64(t-tmin) * int64(width) / int64(span))
		if c >= width {
			c = width - 1
		}
		return c
	}
	resources := r.Resources()
	nameW := 0
	for _, res := range resources {
		if len(res) > nameW {
			nameW = len(res)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline %v .. %v (%v)\n", tmin, tmax, tmax-tmin)
	for _, res := range resources {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		idxs := r.byResource[res]
		for _, k := range idxs {
			s := r.spans[k]
			for c := col(s.Start); c <= col(s.End); c++ {
				lane[c] = '#'
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s| %d span(s), busy %v\n", nameW, res, lane, len(idxs), r.Busy(res))
	}
	return sb.String()
}
