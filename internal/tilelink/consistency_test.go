package tilelink

import (
	"math/rand"
	"testing"

	"qtenon/internal/metrics"
	"qtenon/internal/sim"
)

// These tests model §6.2's second data-race class with two concurrent
// actors on the event engine: the quantum controller writing measurement
// results into host memory at random times, and the host reading them.
// With the soft memory barrier the host polls non-blockingly and only
// consumes synchronized addresses; without it the host races ahead and
// observes unwritten data.

type raceWorld struct {
	engine  *sim.Engine
	mem     map[uint64]uint64
	barrier *Barrier
}

// producer schedules n result writes at randomized times, marking the
// barrier as each PUT is issued.
func (w *raceWorld) producer(rng *rand.Rand, base uint64, n int) {
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		addr := base + uint64(i)*8
		t += sim.Time(rng.Intn(900)+100) * sim.Nanosecond
		value := uint64(i) + 1
		w.engine.At(t, func() {
			w.mem[addr] = value
			w.barrier.MarkSynced(addr)
		})
	}
}

func TestBarrierPreventsReadBeforeWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		w := &raceWorld{engine: &sim.Engine{}, mem: map[uint64]uint64{}, barrier: NewBarrier()}
		const n = 50
		const base = 0x9000
		w.producer(rng, base, n)

		// Host: poll each address in order with single-cycle barrier
		// queries; consume only when synchronized.
		var consumed []uint64
		var pollNext func(i int)
		pollNext = func(i int) {
			if i == n {
				return
			}
			addr := base + uint64(i)*8
			if w.barrier.Query(addr) {
				v, ok := w.mem[addr]
				if !ok {
					t.Fatalf("trial %d: barrier said synced but memory unwritten at %#x", trial, addr)
				}
				consumed = append(consumed, v)
				w.engine.Schedule(sim.Nanosecond, func() { pollNext(i + 1) })
			} else {
				w.engine.Schedule(sim.Nanosecond, func() { pollNext(i) })
			}
		}
		w.engine.Schedule(0, func() { pollNext(0) })
		w.engine.Run()

		if len(consumed) != n {
			t.Fatalf("trial %d: consumed %d of %d results", trial, len(consumed), n)
		}
		for i, v := range consumed {
			if v != uint64(i)+1 {
				t.Fatalf("trial %d: consumed[%d] = %d, want %d", trial, i, v, i+1)
			}
		}
	}
}

func TestWithoutBarrierHostRaces(t *testing.T) {
	// The FENCE-less, barrier-less strawman: the host reads on a fixed
	// schedule. With write times up to 1 µs apart and reads every 100 ns,
	// some reads observe unwritten memory — the race the barrier (or a
	// costly FENCE) exists to prevent.
	rng := rand.New(rand.NewSource(33))
	races := 0
	for trial := 0; trial < 30; trial++ {
		w := &raceWorld{engine: &sim.Engine{}, mem: map[uint64]uint64{}, barrier: NewBarrier()}
		const n = 50
		const base = 0x9000
		w.producer(rng, base, n)
		for i := 0; i < n; i++ {
			addr := base + uint64(i)*8
			w.engine.At(sim.Time(i+1)*100*sim.Nanosecond, func() {
				if _, ok := w.mem[addr]; !ok {
					races++
				}
			})
		}
		w.engine.Run()
	}
	if races == 0 {
		t.Error("barrier-less host never raced; the scenario is vacuous")
	}
}

// The barrier query itself must be cheap (single transaction per poll) —
// the §6.2 requirement that consistency checking not stall the pipeline.
func TestBarrierQueryCountBounded(t *testing.T) {
	w := &raceWorld{engine: &sim.Engine{}, mem: map[uint64]uint64{}, barrier: NewBarrier()}
	reg := metrics.NewRegistry()
	w.barrier.Instrument(reg)
	rng := rand.New(rand.NewSource(35))
	const n = 20
	w.producer(rng, 0x100, n)
	polls := 0
	var pollNext func(i int)
	pollNext = func(i int) {
		if i == n {
			return
		}
		polls++
		addr := uint64(0x100) + uint64(i)*8
		if w.barrier.Query(addr) {
			w.engine.Schedule(sim.Nanosecond, func() { pollNext(i + 1) })
		} else {
			w.engine.Schedule(100*sim.Nanosecond, func() { pollNext(i) })
		}
	}
	w.engine.Schedule(0, func() { pollNext(0) })
	w.engine.Run()
	if q := reg.Counter("tilelink.barrier_queries").Value(); int64(polls) != q {
		t.Errorf("poll count %d != barrier query count %d", polls, q)
	}
	// With 100 ns poll spacing and ≤1 µs inter-write gaps, polls stay
	// within a small constant factor of n.
	if polls > n*15 {
		t.Errorf("polls = %d for %d results; polling pathologically hot", polls, n)
	}
}
