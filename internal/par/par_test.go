package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// covers asserts body visits every index in [0, n) exactly once.
func covers(t *testing.T, n int, launch func(mark func(i int))) {
	t.Helper()
	hits := make([]int32, n)
	launch(func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, chunkSize, chunkSize + 1, SerialThreshold - 1, SerialThreshold, SerialThreshold + 3, 3 * SerialThreshold} {
		covers(t, n, func(mark func(i int)) {
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			})
		})
	}
}

func TestForForcedParallel(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	covers(t, 5*SerialThreshold, func(mark func(i int)) {
		For(5*SerialThreshold, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mark(i)
			}
		})
	})
}

func TestDoCoversItems(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	for _, n := range []int{0, 1, 2, 9, 100} {
		covers(t, n, func(mark func(i int)) {
			Do(n, mark)
		})
	}
}

func TestSumFloat64MatchesSerial(t *testing.T) {
	n := 2*SerialThreshold + 137
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
	}
	chunk := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	SetWorkers(1)
	serial := SumFloat64(n, chunk)
	SetWorkers(8)
	parallel := SumFloat64(n, chunk)
	SetWorkers(0)
	// The chunked partition depends only on n, so serial and parallel
	// execution produce bit-identical sums.
	if serial != parallel {
		t.Fatalf("SumFloat64 not deterministic across worker counts: %v vs %v", serial, parallel)
	}
}

func TestSumComplexDeterministic(t *testing.T) {
	n := SerialThreshold + chunkSize/2
	chunk := func(lo, hi int) complex128 {
		var s complex128
		for i := lo; i < hi; i++ {
			s += complex(float64(i%13), 1/float64(i+1))
		}
		return s
	}
	SetWorkers(1)
	a := SumComplex(n, chunk)
	SetWorkers(6)
	b := SumComplex(n, chunk)
	SetWorkers(0)
	if a != b {
		t.Fatalf("SumComplex not deterministic: %v vs %v", a, b)
	}
}

// Concurrent top-level calls from independent goroutines must not
// interfere: one job owns the pool and the others run inline on their
// callers, and every result stays exact.
func TestConcurrentJobs(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 2 * SerialThreshold
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums := make([]float64, n)
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[i] = float64(i)
				}
			})
			got := SumFloat64(n, func(lo, hi int) float64 {
				var s float64
				for i := lo; i < hi; i++ {
					s += sums[i]
				}
				return s
			})
			want := float64(n) * float64(n-1) / 2
			if got != want {
				t.Errorf("sum = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if w := Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	SetWorkers(3)
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", w)
	}
	SetWorkers(0)
}

// A body panic must cancel the job early (siblings stop claiming
// chunks) and re-raise on the dispatching goroutine — same contract as
// a serial loop.
func TestDoPanicPropagates(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 64
	var executed atomic.Int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Do(n, func(i int) {
			executed.Add(1)
			if i == 3 {
				panic("poisoned item 3")
			}
		})
	}()
	if recovered != "poisoned item 3" {
		t.Fatalf("recovered %v, want the body's panic value", recovered)
	}
	if got := executed.Load(); got > n {
		t.Fatalf("executed %d items of %d — abort re-ran chunks", got, n)
	}

	// The pool must survive a poisoned job: the panic aborted one job,
	// not the workers, so the next dispatch computes normally.
	covers(t, n, func(mark func(i int)) {
		Do(n, mark)
	})
}

// The serial path (one worker) re-raises the panic identically, so the
// contract does not depend on the pool.
func TestDoPanicSerial(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Do(4, func(i int) {
			if i == 2 {
				panic("serial poison")
			}
		})
	}()
	if recovered != "serial poison" {
		t.Fatalf("recovered %v, want the body's panic value", recovered)
	}
}

// A panicking For body cancels remaining chunks: with chunk-granular
// claims and an immediate first-chunk panic, the abort flag must stop
// the job well short of grinding through the whole index space on the
// panicking participant alone.
func TestForPanicAborts(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 8 * SerialThreshold
	var touched atomic.Int64
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		For(n, func(lo, hi int) {
			touched.Add(int64(hi - lo))
			panic("first chunk poison")
		})
	}()
	if recovered == nil {
		t.Fatal("panic did not propagate out of For")
	}
	// Every participant can touch at most one chunk before observing the
	// abort flag; with 4 workers + the caller that bounds the damage far
	// below n.
	if got := touched.Load(); got > int64(8*chunkSize) {
		t.Fatalf("touched %d indices after a first-chunk panic, want early abort (≤ %d)", got, 8*chunkSize)
	}
}

// Par calls made from inside par bodies compose: a nested call runs
// inline instead of queueing help behind workers that are themselves
// waiting on the pool, so this completes at every pool width.
func TestNestedCallsComplete(t *testing.T) {
	defer SetWorkers(0)
	const n = 2 * SerialThreshold
	for w := 2; w <= 8; w++ {
		SetWorkers(w)
		for round := 0; round < 500; round++ {
			var items, covered atomic.Int64
			var sums [4]float64
			Do(4, func(i int) {
				Do(3, func(int) { items.Add(1) })
				For(n, func(lo, hi int) { covered.Add(int64(hi - lo)) })
				sums[i] = SumFloat64(n, func(lo, hi int) float64 { return float64(hi - lo) })
			})
			if items.Load() != 12 || covered.Load() != 4*n {
				t.Fatalf("workers %d round %d: %d nested items, %d indices covered; want 12 and %d", w, round, items.Load(), covered.Load(), 4*n)
			}
			for i, s := range sums {
				if s != n {
					t.Fatalf("workers %d round %d: nested sum %d = %v, want %d", w, round, i, s, n)
				}
			}
		}
	}
}

// A re-raised panic, from the pool's owner or from a nested call run
// inline, must hand the pool back: a later top-level Do(2) still runs
// its two bodies concurrently. They rendezvous with a timeout, so a pool
// left owned fails here instead of hanging.
func TestPanicReleasesPool(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	for _, body := range []func(int){
		func(int) { panic("owner poison") },
		func(int) { Do(2, func(int) { panic("nested poison") }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate out of Do")
				}
			}()
			Do(2, body)
		}()
	}
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	Do(2, func(i int) {
		close(arrived[i])
		select {
		case <-arrived[1-i]:
		case <-time.After(10 * time.Second):
			t.Errorf("body %d waited 10s for its sibling: the pool is still owned", i)
		}
	})
}

// The pool's workers are the module's only persistent goroutines, so a
// warmed pool must leave the live goroutine count where it found it
// after any mix of dispatches: top-level, nested, reducing and
// panicking. A leaked goroutine can only raise the count and one still
// exiting from an earlier test can only lower it, so the check polls
// with backoff until the count settles at or below the warm-up count.
func TestDispatchLeavesNoGoroutines(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 2 * SerialThreshold
	noop := func(lo, hi int) {}
	For(n, noop)
	warm := runtime.NumGoroutine()
	const rounds = 100
	for round := 0; round < rounds; round++ {
		For(n, noop)
		Do(4, func(int) { For(n, noop) })
		SumFloat64(n, func(lo, hi int) float64 { return float64(hi - lo) })
		func() {
			defer func() { _ = recover() }()
			Do(2, func(int) { panic("poison") })
		}()
	}
	live := runtime.NumGoroutine()
	for wait := time.Millisecond; live > warm && wait < time.Second; wait *= 2 {
		time.Sleep(wait)
		live = runtime.NumGoroutine()
	}
	if live > warm {
		t.Fatalf("%d live goroutines after %d rounds of dispatch, %d after warm-up", live, rounds, warm)
	}
}

// A Do that does not panic allocates only its job and the closure that
// adapts body to a chunk range. The deferred recover in job.run must
// not move its value to the heap on every run: that cost one more
// allocation per participating goroutine.
func TestDoAllocs(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	noop := func(int) {}
	Do(4, noop) // spawn the pool
	if got := testing.AllocsPerRun(100, func() { Do(4, noop) }); got > 2 {
		t.Errorf("Do(4, noop) allocates %.2f times per call, want at most 2", got)
	}
}
