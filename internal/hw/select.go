package hw

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
