// Package fixture holds the scratch hand-off shapes deepscratch must
// accept: borrowing callees, explicit copies, and fresh allocations.
package fixture

import "qtenon/internal/qsim"

var kept [][]float64

func sink(p []float64) { kept = append(kept, p) }

// borrow only reads its argument.
func borrow(p []float64) float64 {
	t := 0.0
	for _, v := range p {
		t += v
	}
	return t
}

// Lending scratch to a read-only callee is the whole point of the
// arena.
func goodBorrow(st *qsim.State, buf []float64) float64 {
	p := st.AppendProbabilities(buf)
	return borrow(p)
}

// An explicit copy may escape; the scratch storage stays behind.
func goodCopy(st *qsim.State, buf []float64) {
	p := st.AppendProbabilities(buf)
	c := append([]float64(nil), p...)
	sink(c)
}

// A nil dst makes the producer allocate fresh storage the caller owns
// outright — free to escape.
func goodFresh(st *qsim.State) {
	p := st.AppendProbabilities(nil)
	sink(p)
}

type stats struct{ first float64 }

var last stats

// note keeps one element of its argument: a float64 holds no pointer,
// so the scratch storage itself is not retained.
func note(p []float64) { last.first = p[0] }

func goodElement(st *qsim.State, buf []float64) {
	p := st.AppendProbabilities(buf)
	note(p)
}
