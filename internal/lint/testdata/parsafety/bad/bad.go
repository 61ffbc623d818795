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

// scale writes every element of dst; its summary carries the mutation
// to the call site inside the closure.
func scale(dst []float64, f float64) {
	for i := range dst {
		dst[i] *= f
	}
}

// Handing the whole captured slice to a mutating callee is an
// un-partitioned write one call deep.
func wholeSliceToMutator(out []float64) {
	par.Do(len(out), func(i int) {
		scale(out, 2) // want `passes captured "out" to scale, which its summary shows writes through that parameter`
	})
}

func zero(x *float64) { *x = 0 }

// zeroAll writes p's elements through their addresses.
func zeroAll(p []float64) {
	for i := range p {
		zero(&p[i])
	}
}

func addressedMutator(out []float64) {
	par.Do(len(out), func(i int) {
		zeroAll(out) // want `passes captured "out" to zeroAll, which its summary shows writes through that parameter`
	})
}

type counter struct{ n int }

func (c *counter) reset() { c.n = 0 }

// resetAll calls a pointer method on each element, which takes the
// element's address.
func resetAll(cs []counter) {
	for i := range cs {
		cs[i].reset()
	}
}

func pointerMethodMutator(cs []counter) {
	par.Do(len(cs), func(i int) {
		resetAll(cs) // want `passes captured "cs" to resetAll, which its summary shows writes through that parameter`
	})
}

// fillRow writes the first row through a slice of the array.
func fillRow(rows [][4]float64, v []float64) { copy(rows[0][:], v) }

func arraySliceMutator(rows [][4]float64, v []float64) {
	par.Do(len(rows), func(i int) {
		fillRow(rows, v) // want `passes captured "rows" to fillRow, which its summary shows writes through that parameter`
	})
}

// countAll writes c's elements with ++, which its summary must record as
// a mutation like any assignment.
func countAll(c []int) {
	for i := range c {
		c[i]++
	}
}

func incDecMutator(counts []int) {
	par.Do(len(counts), func(i int) {
		countAll(counts) // want `passes captured "counts" to countAll, which its summary shows writes through that parameter`
	})
}
