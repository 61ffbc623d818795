package sim

import "qtenon/internal/metrics"

// Engine is a discrete-event simulator. Events are closures scheduled at
// absolute virtual times; Run executes them in timestamp order (FIFO
// within a timestamp). Engine is not safe for concurrent use; the entire
// simulation runs single-threaded, which keeps it deterministic.
//
// The zero Engine is ready to use.
//
// # Hot-path memory discipline
//
// The event queue is a hand-rolled 4-ary min-heap over a reusable
// backing slice. Events are stored by value — nothing is boxed through
// an interface, so Schedule and Step are amortized zero-allocation once
// the backing storage has grown to the simulation's peak simultaneity.
// Popped slots have their closure cleared so executed events do not
// retain their captures through the backing array.
type Engine struct {
	now   Time
	heap  fourAryHeap
	seq   uint64
	nexec uint64

	cEvents *metrics.Counter
	gDepth  *metrics.Gauge
}

// Instrument attaches the engine to a metrics registry: every executed
// event counts into "sim.events_executed" and the event-queue depth is
// tracked by the "sim.heap_depth" gauge (high-water = peak simultaneity).
// A nil registry detaches (nil instruments are no-ops).
func (e *Engine) Instrument(reg *metrics.Registry) {
	e.cEvents = reg.Counter("sim.events_executed")
	e.gDepth = reg.Gauge("sim.heap_depth")
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (timestamp, schedule order).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fourAryHeap is a 4-ary min-heap of events ordered by (at, seq). The
// wider fan-out halves the tree depth of a binary heap and keeps each
// node's children in one or two cache lines, which wins on the
// sift-down-dominated pop path. The backing slice is reused across
// push/pop cycles; pop clears the vacated slot's fn so the array does
// not retain executed closures.
type fourAryHeap []event

func (h *fourAryHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *fourAryHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot: no closure retention
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		min := i
		c0 := 4*i + 1
		last := c0 + 3
		if last >= n {
			last = n - 1
		}
		for c := c0; c <= last; c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

func (e *Engine) push(at Time, f func()) {
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, fn: f})
	e.gDepth.Set(int64(e.Pending()))
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.nexec }

// Pending reports the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule runs fn after the given delay. A negative delay panics:
// causality violations are always bugs in the caller.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative event delay")
	}
	e.push(e.now+delay, fn)
}

// At runs fn at the absolute time t, which must not precede Now.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.push(t, fn)
}

// Step executes the single earliest pending event and reports whether one
// was available.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.nexec++
	e.cEvents.Inc()
	e.gDepth.Set(int64(e.Pending()))
	ev.fn()
	return true
}

// Run executes events until the queue drains and returns the final
// simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
