// Package hw provides the small synthesizable-style hardware primitives
// that the Qtenon controller's bus is assembled from: bounded ring-buffer
// FIFOs and a tag allocator. These correspond one-to-one with blocks drawn
// in Figure 5 of the paper (the Reorder Buffer Queue's request queues and
// the 32-entry tag pool).
package hw

import "fmt"

// Queue is a bounded FIFO implemented as a ring buffer, the software model
// of an on-chip queue with a fixed number of entries. The zero Queue is
// unusable; create one with NewQueue.
type Queue[T any] struct {
	buf        []T
	head, size int
}

// NewQueue returns an empty queue holding at most capacity elements.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("hw: non-positive queue capacity %d", capacity))
	}
	return &Queue[T]{buf: make([]T, capacity)}
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.size }

// Cap reports the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.size == len(q.buf) }

// Push enqueues v and reports whether there was room. A full queue drops
// nothing: the caller must hold v and retry, exactly like a hardware
// producer seeing the queue's ready signal deasserted.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	return true
}

// Pop dequeues the oldest element. ok is false when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.Empty() {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release reference
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.Empty() {
		return v, false
	}
	return q.buf[q.head], true
}

// Reset empties the queue.
func (q *Queue[T]) Reset() {
	var zero T
	for i := range q.buf {
		q.buf[i] = zero
	}
	q.head, q.size = 0, 0
}
