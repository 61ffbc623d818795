// Package par is the repository's shared parallel-execution engine: a
// persistent worker pool with chunked parallel-for and deterministic
// reductions, used by the statevector kernels (internal/qsim) and the
// benchmark sweep generators (internal/bench).
//
// Design constraints, in order:
//
//  1. Determinism. Every reduction partitions its index range into
//     fixed-size chunks (independent of worker count) and combines the
//     per-chunk partials in chunk order, so the result is bit-identical
//     at any GOMAXPROCS — including 1. Elementwise loops are trivially
//     deterministic.
//  2. No regression on small inputs. Loops shorter than SerialThreshold
//     run inline on the calling goroutine with zero synchronization.
//  3. No deadlocks under composition. One job owns the pool at a time;
//     a par call made while another job is in flight — from inside a
//     par body, or from a second top-level caller — runs its chunks
//     inline on its own goroutine. No help request is ever queued behind
//     a worker that is itself waiting, and the owner always participates
//     in its own job, so every job completes.
//
// The pool is lazily spawned and persists for the life of the process;
// its workers are the module's only persistent goroutines, and
// TestDispatchLeavesNoGoroutines fails when a dispatch leaves any other
// goroutine running. Workers pull jobs from a shared queue; a job is a
// bag of chunks drained through one atomic counter, which gives dynamic
// load balancing without per-chunk goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SerialThreshold is the loop length below which For runs inline on the
// calling goroutine. 2^14 amplitudes keeps small statevectors (< 14
// qubits) and short loops free of synchronization overhead.
const SerialThreshold = 1 << 14

// chunkSize is the fixed chunk length loops and reductions are
// partitioned on. It depends only on the input length — never on the
// worker count — which is what makes reductions deterministic across
// GOMAXPROCS settings.
const chunkSize = 1 << 13

// maxWorkers overrides the pool width when positive; 0 means "use
// runtime.GOMAXPROCS(0) at call time". Set via SetWorkers (tests and
// benchmarks).
var maxWorkers atomic.Int32

// spawned counts pool goroutines already started.
var spawned atomic.Int32

// owned is set while a dispatched job owns the pool.
var owned atomic.Bool

// work is the shared job queue. Sends are non-blocking: if the queue is
// full the caller simply gets less help and runs more chunks itself.
var work = make(chan *job, 128)

// job is one parallel loop: chunks are claimed through the next counter
// by the caller and by every worker that received the job.
type job struct {
	fn    func(lo, hi int)
	n     int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup
	// aborted stops further chunk claims after a body panic; panicked
	// holds the first recovered panic value, re-raised on the dispatching
	// goroutine once every participant has drained. Both stay untouched
	// (two relaxed loads per chunk) on the non-panicking path.
	aborted  atomic.Bool
	panicked atomic.Pointer[any]
}

// run drains chunks until the job is exhausted or aborted. A panic in
// the body is captured (first one wins) and aborts the job: siblings
// stop claiming new chunks, so a poisoned loop cancels early instead of
// grinding through the remaining index space.
func (j *job) run() {
	defer func() {
		if r := recover(); r != nil {
			// Store the address of a copy: &r would move r to the heap
			// on every run, panicking or not (TestDoAllocs).
			p := r
			j.panicked.CompareAndSwap(nil, &p)
			j.aborted.Store(true)
		}
	}()
	for {
		if j.aborted.Load() {
			return
		}
		c := int(j.next.Add(1)) - 1
		lo := c * j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.fn(lo, hi)
	}
}

// reraise re-raises the body's first panic on the dispatching goroutine,
// after every participant has stopped touching the job — the same
// contract as a serial loop, minus the chunks cancelled by the abort.
func (j *job) reraise() {
	if p := j.panicked.Load(); p != nil {
		panic(*p)
	}
}

// Workers reports the current parallelism width: the SetWorkers override
// when set, else GOMAXPROCS.
func Workers() int {
	if w := int(maxWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the pool width: 1 forces every call serial
// (benchmarking baselines, bisecting), 0 restores the GOMAXPROCS
// default. The persistent pool never shrinks; the override only limits
// how many helpers a job recruits.
func SetWorkers(w int) { maxWorkers.Store(int32(w)) }

// ensureSpawned grows the persistent pool to at least n workers.
func ensureSpawned(n int) {
	for {
		cur := spawned.Load()
		if int(cur) >= n {
			return
		}
		if spawned.CompareAndSwap(cur, cur+1) {
			go func() {
				for j := range work {
					j.run()
					j.wg.Done()
				}
			}()
		}
	}
}

// dispatch runs the job with up to helpers pool workers assisting the
// calling goroutine, and returns when every chunk has completed. When
// another job already owns the pool, the calling goroutine runs every
// chunk itself.
func dispatch(j *job, helpers int) {
	if !owned.CompareAndSwap(false, true) {
		j.run()
		j.reraise()
		return
	}
	if max := (j.n - 1) / j.chunk; helpers > max {
		helpers = max // no point recruiting more workers than extra chunks
	}
	ensureSpawned(helpers)
	for i := 0; i < helpers; i++ {
		j.wg.Add(1)
		select {
		case work <- j:
		default:
			j.wg.Done()
			i = helpers // queue full: run the rest ourselves
		}
	}
	j.run()
	// The join is structurally bounded: this job owns the pool, so every
	// worker holding a wg slot is running chunks of this same finite job
	// (or skipping them after an abort), any par call its bodies make
	// runs inline rather than waiting on the pool, and run recovers body
	// panics, so every helper reaches its Done.
	j.wg.Wait()
	owned.Store(false)
	j.reraise()
}

// For executes body over a partition of [0, n): body(lo, hi) is called
// with disjoint ranges covering [0, n) exactly once. Ranges run
// concurrently when n ≥ SerialThreshold, more than one worker is
// available and no other job owns the pool; body must therefore be safe
// for disjoint-range concurrency (pure elementwise updates are).
func For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if n < SerialThreshold || w == 1 {
		body(0, n)
		return
	}
	j := &job{fn: body, n: n, chunk: chunkSize}
	dispatch(j, w-1)
}

// Do executes body(i) for every i in [0, n), in parallel when more than
// one worker is available. Unlike For it parallelizes at item
// granularity regardless of n, so it suits small collections of heavy
// tasks (sample blocks, sweep points).
func Do(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if n == 1 || w == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	j := &job{
		fn: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				body(i)
			}
		},
		n:     n,
		chunk: 1,
	}
	dispatch(j, w-1)
}

// reduce partitions [0, n) into fixed chunkSize ranges, evaluates chunk
// on each (in parallel when large enough), and folds the partials in
// chunk order. The partition and fold order depend only on n, so the
// result is bit-identical at any worker count.
func reduce[T any](n int, chunk func(lo, hi int) T, add func(a, b T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	nchunks := (n + chunkSize - 1) / chunkSize
	if nchunks == 1 {
		return chunk(0, n)
	}
	partials := make([]T, nchunks)
	eval := func(lo, hi int) {
		for c := lo; c < hi; c++ {
			clo := c * chunkSize
			chi := clo + chunkSize
			if chi > n {
				chi = n
			}
			partials[c] = chunk(clo, chi)
		}
	}
	if w := Workers(); n < SerialThreshold || w == 1 {
		eval(0, nchunks)
	} else {
		j := &job{fn: eval, n: nchunks, chunk: 1}
		dispatch(j, w-1)
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = add(acc, p)
	}
	return acc
}

// SumFloat64 reduces chunk partial sums over [0, n) deterministically:
// the chunking and combination order are fixed by n alone.
func SumFloat64(n int, chunk func(lo, hi int) float64) float64 {
	return reduce(n, chunk, func(a, b float64) float64 { return a + b })
}

// SumComplex is SumFloat64 for complex128 partials.
func SumComplex(n int, chunk func(lo, hi int) complex128) complex128 {
	return reduce(n, chunk, func(a, b complex128) complex128 { return a + b })
}
