// Package fixture exercises the deepscratch analyzer: scratch-backed
// buffers handed to callees whose summaries show they retain the
// parameter beyond the call.
package fixture

import "qtenon/internal/qsim"

var kept [][]float64

// sink retains its argument in package-level state.
func sink(p []float64) {
	kept = append(kept, p)
}

type holder struct{ last []float64 }

// keep retains its argument in its receiver.
func (h *holder) keep(p []float64) { h.last = p }

// publish retains its argument on a channel.
func publish(ch chan []float64, p []float64) { ch <- p }

func badGlobal(st *qsim.State, buf []float64) {
	p := st.AppendProbabilities(buf)
	sink(p) // want `passed to sink, which retains that parameter`
}

func badReceiver(h *holder, st *qsim.State, buf []float64) {
	p := st.AppendProbabilities(buf)
	h.keep(p) // want `passed to keep, which retains that parameter`
}

func badChannel(st *qsim.State, buf []float64, ch chan []float64) {
	p := st.AppendProbabilities(buf)
	publish(ch, p) // want `passed to publish, which retains that parameter`
}

// first flows its argument to its result, so w still aliases the
// scratch storage two hops from the producer.
func first(p []float64) []float64 { return p }

func badFlow(st *qsim.State, buf []float64) {
	w := first(st.AppendProbabilities(buf))
	sink(w) // want `passed to sink, which retains that parameter`
}

// A producer result passed straight into the retaining callee, no
// intermediate local.
func badDirect(st *qsim.State, buf []float64) {
	sink(st.AppendProbabilities(buf)) // want `passed to sink, which retains that parameter`
}

var pinned *float64

// keepFirst retains the address of one element, and with it the
// scratch array behind the slice.
func keepFirst(p []float64) { pinned = &p[0] }

func badAddress(st *qsim.State, buf []float64) {
	p := st.AppendProbabilities(buf)
	keepFirst(p) // want `passed to keepFirst, which retains that parameter`
}
