package main

import (
	"math"
	"sort"
)

// median returns the middle value (the mean of the two middle values for
// an even count); NaN when xs is empty. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles eval_us_tail may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest ladder percentile of sorted that has at least
// ten samples strictly beyond its nearest-rank position, with the
// percentile and that count. ok is false when even the median lacks ten
// samples beyond it.
func tail(sorted []float64) (value, pct float64, beyond int, ok bool) {
	n := len(sorted)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return sorted[rank-1], p, n - rank, true
		}
	}
	return 0, 0, 0, false
}

// fastest keeps, for each position of a sequence that repeats
// identically, the smallest value observed there.
type fastest []int64

func (f *fastest) observe(xs []int64) {
	if *f == nil {
		*f = append(fastest(nil), xs...)
		return
	}
	for i := range *f {
		if i < len(xs) && xs[i] < (*f)[i] {
			(*f)[i] = xs[i]
		}
	}
}

func (f fastest) sum() int64 {
	var s int64
	for _, x := range f {
		s += x
	}
	return s
}
