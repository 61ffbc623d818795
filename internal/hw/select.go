package hw

// PriorityEncoder selects the lowest-indexed asserted line from a request
// vector, mirroring the fixed-priority encoder that picks a free PGU in
// Stage 3 of the pulse pipeline (Figure 6).
//
// It returns the index of the first true element, or -1 when none is set.
func PriorityEncoder(requests []bool) int {
	for i, r := range requests {
		if r {
			return i
		}
	}
	return -1
}

// Arbiter grants one requester per invocation in round-robin order,
// modeling the arbiter that resolves PGU write-back contention in Stage 4
// of the pulse pipeline. Round-robin matches the fairness requirement: no
// PGU can be starved of the write port.
//
// The zero Arbiter with a positive width set via NewArbiter is ready.
type Arbiter struct {
	width int
	next  int // index with top priority on the next grant
}

// NewArbiter returns an arbiter over the given number of request lines.
func NewArbiter(width int) *Arbiter {
	if width <= 0 {
		panic("hw: non-positive arbiter width")
	}
	return &Arbiter{width: width}
}

// Grant chooses among the asserted request lines, starting the search at
// the line after the previous winner. It returns -1 when no line is
// asserted; otherwise it returns the granted index and advances the
// round-robin pointer.
func (a *Arbiter) Grant(requests []bool) int {
	if len(requests) != a.width {
		panic("hw: request vector width mismatch")
	}
	for i := 0; i < a.width; i++ {
		idx := (a.next + i) % a.width
		if requests[idx] {
			a.next = (idx + 1) % a.width
			return idx
		}
	}
	return -1
}

// TagPool hands out unique small integer tags and accepts them back, the
// model of the 5-bit TileLink source-tag pool (32 outstanding requests)
// in the quantum controller cache interface (Figure 5).
type TagPool struct {
	free []int
	out  map[int]bool
}

// NewTagPool returns a pool with tags 0..n-1, all free.
func NewTagPool(n int) *TagPool {
	if n <= 0 {
		panic("hw: non-positive tag pool size")
	}
	p := &TagPool{free: make([]int, 0, n), out: make(map[int]bool, n)}
	for i := n - 1; i >= 0; i-- { // so tag 0 is allocated first
		p.free = append(p.free, i)
	}
	return p
}

// Acquire takes a free tag. ok is false when all tags are outstanding.
func (p *TagPool) Acquire() (tag int, ok bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	tag = p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.out[tag] = true
	return tag, true
}

// Release returns an outstanding tag to the pool. Releasing a tag that is
// not outstanding panics: it indicates a protocol violation (duplicate
// response) that must not be masked.
func (p *TagPool) Release(tag int) {
	if !p.out[tag] {
		panic("hw: release of tag that is not outstanding")
	}
	delete(p.out, tag)
	p.free = append(p.free, tag)
}

// Outstanding reports the number of tags currently in use.
func (p *TagPool) Outstanding() int { return len(p.out) }

// Available reports the number of free tags.
func (p *TagPool) Available() int { return len(p.free) }
