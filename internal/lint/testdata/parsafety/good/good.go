// Package fixture holds the sanctioned concurrent-write idioms the
// parsafety analyzer must stay silent on.
package fixture

import "qtenon/internal/par"

// The chunk idiom: k is derived from the partition bounds, so out[k] is
// a partitioned write.
func partitioned(out, vals []float64) {
	par.For(len(vals), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out[k] = vals[k] * 2
		}
	})
}

// Chunk-local accumulation merged by the executor's deterministic
// reduction.
func chunkLocal(vals []float64) float64 {
	return par.SumFloat64(len(vals), func(lo, hi int) float64 {
		acc := 0.0
		for k := lo; k < hi; k++ {
			acc += vals[k]
		}
		return acc
	})
}

// An index derived through a local still partitions.
func derivedIndex(out []float64) {
	par.Do(len(out), func(i int) {
		j := i + 1
		out[j-1] = 1
	})
}

// The slot-parameter go idiom: each writer owns the index it was
// launched with.
func pairEval(eval func() float64) (float64, float64) {
	var vals [2]float64
	done := make(chan struct{})
	go func(slot int) {
		vals[slot] = eval()
		close(done)
	}(0)
	vals[1] = eval()
	<-done
	return vals[0], vals[1]
}
