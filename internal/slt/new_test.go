package slt

// Programs build SLTs only through NewBank, in the Table 2 geometry. The
// tests also build single tables of any geometry, over a QSpace and an
// allocator they hold, with these constructors.

// New returns an SLT with the given geometry backed by qspace and alloc.
func New(ways, setCount int, qspace *QSpace, alloc *Allocator) *SLT {
	if ways <= 0 || setCount <= 0 {
		panic("slt: non-positive geometry")
	}
	return &SLT{ways: ways, sets: setCount, entries: make([]entry, ways*setCount), qspace: qspace, alloc: alloc}
}

// DefaultNew returns the Table 2 geometry: 2 ways × 128 entries, a fresh
// QSpace, and an allocator over pulseEntries slots.
func DefaultNew(pulseEntries int) *SLT {
	return New(2, 1<<IndexBits, NewQSpace(), NewAllocator(pulseEntries))
}

// NewQSpace returns an empty region.
func NewQSpace() *QSpace { return &QSpace{} }

// NewAllocator returns an allocator over `capacity` pulse entries.
func NewAllocator(capacity int) *Allocator {
	if capacity <= 0 {
		panic("slt: non-positive allocator capacity")
	}
	return &Allocator{capacity: capacity}
}
