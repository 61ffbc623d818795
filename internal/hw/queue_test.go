package hw

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueBasic(t *testing.T) {
	q := NewQueue[int](3)
	if !q.Empty() || q.Full() || q.Len() != 0 || q.Cap() != 3 {
		t.Fatalf("fresh queue state wrong: len=%d cap=%d", q.Len(), q.Cap())
	}
	for i := 1; i <= 3; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed on non-full queue", i)
		}
	}
	if !q.Full() {
		t.Error("queue should be full after 3 pushes")
	}
	if q.Push(4) {
		t.Error("Push succeeded on full queue")
	}
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Errorf("Peek = %d,%v, want 1,true", v, ok)
	}
	for i := 1; i <= 3; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Errorf("Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop succeeded on empty queue")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek succeeded on empty queue")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue[int](4)
	next, expect := 0, 0
	for round := 0; round < 100; round++ {
		for q.Push(next) {
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != expect {
				t.Fatalf("round %d: Pop = %d,%v, want %d", round, v, ok, expect)
			}
			expect++
		}
	}
}

func TestQueueReset(t *testing.T) {
	q := NewQueue[string](2)
	q.Push("a")
	q.Push("b")
	q.Reset()
	if !q.Empty() {
		t.Error("queue not empty after Reset")
	}
	if !q.Push("c") {
		t.Error("Push failed after Reset")
	}
	if v, _ := q.Pop(); v != "c" {
		t.Errorf("Pop after reset = %q, want c", v)
	}
}

func TestQueueInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewQueue(0) did not panic")
		}
	}()
	NewQueue[int](0)
}

// Property: a Queue behaves exactly like a slice-based FIFO under a random
// push/pop interleaving, including full/empty refusals.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		q := NewQueue[int](capacity)
		var ref []int
		next := 0
		for _, push := range ops {
			if push {
				got := q.Push(next)
				want := len(ref) < capacity
				if got != want {
					return false
				}
				if want {
					ref = append(ref, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTagPool(t *testing.T) {
	p := NewTagPool(4)
	if p.Available() != 4 || p.Outstanding() != 0 {
		t.Fatalf("fresh pool: avail=%d out=%d", p.Available(), p.Outstanding())
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		tag, ok := p.Acquire()
		if !ok {
			t.Fatalf("Acquire %d failed", i)
		}
		if seen[tag] {
			t.Fatalf("duplicate tag %d", tag)
		}
		if tag < 0 || tag >= 4 {
			t.Fatalf("tag %d out of range", tag)
		}
		seen[tag] = true
	}
	if _, ok := p.Acquire(); ok {
		t.Error("Acquire succeeded with no free tags")
	}
	p.Release(2)
	if tag, ok := p.Acquire(); !ok || tag != 2 {
		t.Errorf("reacquire = %d,%v, want 2,true", tag, ok)
	}
}

func TestTagPoolDoubleReleasePanics(t *testing.T) {
	p := NewTagPool(2)
	tag, _ := p.Acquire()
	p.Release(tag)
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	p.Release(tag)
}

// Property: tags are always unique among outstanding ones under random
// acquire/release traffic.
func TestTagPoolUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewTagPool(32)
	var held []int
	for step := 0; step < 20000; step++ {
		if rng.Intn(2) == 0 {
			tag, ok := p.Acquire()
			if ok {
				for _, h := range held {
					if h == tag {
						t.Fatalf("tag %d handed out twice", tag)
					}
				}
				held = append(held, tag)
			} else if len(held) != 32 {
				t.Fatalf("Acquire failed with only %d outstanding", len(held))
			}
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			p.Release(held[i])
			held = append(held[:i], held[i+1:]...)
		}
		if p.Outstanding() != len(held) {
			t.Fatalf("Outstanding=%d, held=%d", p.Outstanding(), len(held))
		}
	}
}
