// Package fixture exercises every write class the parsafety analyzer
// reports: concurrent closures touching state that is not partitioned
// by their own index parameters.
package fixture

import "qtenon/internal/par"

var global int

// An unsynchronized scalar accumulation is the classic nondeterministic
// reduction.
func captureScalar(out, vals []float64) {
	sum := 0.0
	par.For(len(vals), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			sum += vals[k] // want `writes captured variable "sum"`
		}
	})
	out[0] = sum
}

// Writing a fixed element from every worker races even though it is a
// slice store.
func fixedIndex(out []float64) {
	par.Do(len(out), func(i int) {
		out[0] = float64(i) // want `writes through captured "out" without a partition index`
	})
}

// Concurrent map writes race regardless of key partitioning.
func mapWrite(m map[int]int) {
	par.Do(8, func(i int) {
		m[i] = i // want `writes captured map "m"`
	})
}

// A bare go statement is held to the same discipline as the par
// executors.
func goStmtWrite(done chan struct{}) {
	total := 0
	go func() {
		total++ // want `writes captured variable "total"`
		close(done)
	}()
	<-done
	_ = total
}

// Package-level state is captured state too.
func globalWrite() {
	par.Do(4, func(i int) {
		global = i // want `writes captured variable "global"`
	})
}
