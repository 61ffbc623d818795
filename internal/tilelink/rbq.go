package tilelink

import (
	"fmt"

	"qtenon/internal/hw"
	"qtenon/internal/metrics"
)

// RBQ is the Reorder Buffer Queue of Figure 5: one small queue per tag
// plus a tag-order queue recording issue order. Responses enqueue into
// their tag's queue as they arrive (out of order); Pop dequeues data in
// the original issue order by following the tag-order queue.
type RBQ struct {
	perTag []*hw.Queue[uint64]
	order  *hw.Queue[int]

	gPending *metrics.Gauge
}

// Instrument attaches the RBQ to a metrics registry: the
// "tilelink.rbq_pending" gauge tracks issued-but-unpopped requests
// (high-water = peak reorder pressure). Nil registry detaches.
func (r *RBQ) Instrument(reg *metrics.Registry) {
	r.gPending = reg.Gauge("tilelink.rbq_pending")
}

// NewRBQ builds an RBQ for `tags` tag values with per-tag queue depth
// `depth` and an order queue of capacity `orderDepth`. On a bus with
// `tags` tags, every issued but unpopped beat holds either a bus tag (in
// flight) or a slot in its tag's queue (delivered), so the order queue
// never holds more than tags*(depth+1) entries; that capacity suffices.
func NewRBQ(tags, depth, orderDepth int) *RBQ {
	r := &RBQ{
		perTag: make([]*hw.Queue[uint64], tags),
		order:  hw.NewQueue[int](orderDepth),
	}
	for i := range r.perTag {
		r.perTag[i] = hw.NewQueue[uint64](depth)
	}
	return r
}

// PushOrder records that a request with the given tag was issued; call at
// issue time. It reports false when the order queue is full (the issuer
// must stall).
func (r *RBQ) PushOrder(tag int) bool {
	ok := r.order.Push(tag)
	if ok {
		r.gPending.Set(int64(r.order.Len()))
	}
	return ok
}

// Deliver enqueues an arrived response. It errors on unknown tags or
// per-tag overflow, both protocol violations.
func (r *RBQ) Deliver(tag int, data uint64) error {
	if tag < 0 || tag >= len(r.perTag) {
		return fmt.Errorf("tilelink: RBQ delivery with invalid tag %d", tag)
	}
	if !r.perTag[tag].Push(data) {
		return fmt.Errorf("tilelink: RBQ per-tag queue %d overflow", tag)
	}
	return nil
}

// Pop returns the next response in issue order, if its data has arrived.
func (r *RBQ) Pop() (data uint64, ok bool) {
	tag, ok := r.order.Peek()
	if !ok {
		return 0, false
	}
	data, ok = r.perTag[tag].Pop()
	if !ok {
		return 0, false // head-of-line response not yet delivered
	}
	r.order.Pop()
	return data, true
}

// Pending reports how many issued requests have not been popped.
func (r *RBQ) Pending() int { return r.order.Len() }

// Barrier is the soft memory barrier of §6.2: it tracks which host
// addresses have had their PUT requests issued to the system bus, so the
// host can query readiness non-blockingly over RoCC (single-cycle) rather
// than executing a FENCE.
//
// It keeps the ranges it was asked to mark, not one entry per address:
// the machine marks the same batch range on every evaluation and only
// tests query, so marking costs one comparison per kept range and Query
// walks the ranges.
type Barrier struct {
	spans []span

	cQueries *metrics.Counter
}

// span is one marked range: the n addresses addr + i·stride for
// 0 ≤ i < n, wrapping modulo 2^64.
type span struct {
	addr, stride uint64
	n            int
}

// Instrument attaches the barrier to a metrics registry: every Query
// counts into "tilelink.barrier_queries". Nil registry detaches.
func (b *Barrier) Instrument(reg *metrics.Registry) {
	b.cQueries = reg.Counter("tilelink.barrier_queries")
}

// NewBarrier returns an empty barrier.
func NewBarrier() *Barrier { return &Barrier{} }

// MarkSynced records that the write covering addr has been sent through
// the system bus.
func (b *Barrier) MarkSynced(addr uint64) { b.MarkRange(addr, 1, 0) }

// MarkRange marks a contiguous range [addr, addr+n*stride) at the given
// stride. A range already kept is not kept twice.
func (b *Barrier) MarkRange(addr uint64, n int, stride uint64) {
	if n <= 0 {
		return
	}
	if n == 1 || stride == 0 {
		n, stride = 1, 0
	}
	s := span{addr, stride, n}
	for _, kept := range b.spans {
		if kept == s {
			return
		}
	}
	b.spans = append(b.spans, s)
}

// Query reports whether addr is synchronized. Non-blocking; counts one
// query transaction.
func (b *Barrier) Query(addr uint64) bool {
	b.cQueries.Inc()
	for _, s := range b.spans {
		for i := 0; i < s.n; i++ {
			if s.addr+uint64(i)*s.stride == addr {
				return true
			}
		}
	}
	return false
}

// Reset clears all synchronization state (new iteration).
func (b *Barrier) Reset() { b.spans = b.spans[:0] }
