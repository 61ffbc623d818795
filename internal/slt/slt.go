// Package slt implements the Skip Lookup Table of §5.3/Figure 7: a
// per-qubit, 2-way × 128-entry cache that maps quantized gate parameters
// to the .pulse QAddress where that pulse was last generated, so repeated
// parameters skip pulse computation entirely.
//
// A lookup key is formed from the gate's 4-bit type and 27-bit quantized
// data field. The low 3 bits of the type and the low 4 bits of the data
// concatenate into the 7-bit set index (128 sets); the next 20 data bits
// are the tag stored in each entry (Table 2: tag 20 b + qaddr 30 b +
// valid 1 b + count 5 b = 56 b). Replacement is Least-Count with
// invalid-first priority; valid victims are written back to QSpace, the
// per-qubit 2^20 × 4 B DRAM region, which is also consulted on misses so
// pulses that outlived their SLT entry are still reused.
package slt

import "qtenon/internal/metrics"

// Geometry and field widths from Table 2 / Figure 7.
const (
	IndexBits = 7  // 128 sets
	TagBits   = 20 // stored tag
	CountBits = 5  // saturating use counter
	MaxCount  = 1<<CountBits - 1

	// QSpaceEntriesPerQubit: 2^20 tags × 4 B = 4 MB per qubit (§5.3).
	QSpaceEntriesPerQubit = 1 << TagBits
	QSpaceBytesPerQubit   = QSpaceEntriesPerQubit * 4
)

// Key derives the SLT set index and tag from a program entry's type and
// data fields. The index interleaves 3 type bits with 4 data bits exactly
// as Figure 7 describes ("truncated into a 3-bit type field and a 4-bit
// data field ... concatenated to form an index").
func Key(typ uint8, data uint32) (index uint8, tag uint32) {
	index = (typ&0x7)<<4 | uint8(data&0xf)
	tag = (data >> 4) & (1<<TagBits - 1)
	return index, tag
}

type entry struct {
	tag   uint32
	qaddr uint32
	valid bool
	count uint8
}

// QSpace models one qubit's reserved DRAM region: a direct-mapped table
// from 20-bit tag to QAddress. It lives behind datapath ❸ (controller
// private ↔ host L2), so every access is a DRAM-side transaction the
// system model charges for.
type QSpace struct {
	slots map[uint32]uint32 // tag → qaddr
	// Writebacks counts the evicted mappings stored back.
	Writebacks int64
}

// NewQSpace returns an empty region.
func NewQSpace() *QSpace { return &QSpace{slots: make(map[uint32]uint32)} }

// Lookup consults the region for a tag.
func (q *QSpace) Lookup(tag uint32) (qaddr uint32, ok bool) {
	qaddr, ok = q.slots[tag]
	return qaddr, ok
}

// Store writes back an evicted mapping.
func (q *QSpace) Store(tag, qaddr uint32) {
	q.slots[tag] = qaddr
	q.Writebacks++
}

// Invalidate removes a mapping (used when its pulse slot is recycled).
func (q *QSpace) Invalidate(tag uint32) { delete(q.slots, tag) }

// Allocator hands out .pulse entry indices for one qubit. When the pulse
// store wraps, the recycled slot's old parameter mapping must be
// invalidated everywhere, which the SLT handles through the owner
// callback.
type Allocator struct {
	capacity int
	next     int
}

// NewAllocator returns an allocator over `capacity` pulse entries.
func NewAllocator(capacity int) *Allocator {
	if capacity <= 0 {
		panic("slt: non-positive allocator capacity")
	}
	return &Allocator{capacity: capacity}
}

// Alloc returns the next pulse slot index.
func (a *Allocator) Alloc() int {
	idx := a.next
	a.next++
	if a.next == a.capacity {
		a.next = 0
	}
	return idx
}

// Outcome classifies where a Lookup found (or placed) the parameter.
type Outcome uint8

// Lookup outcomes.
const (
	HitSLT    Outcome = iota // pulse address served from the SLT
	HitQSpace                // SLT missed; QSpace had the mapping
	Allocated                // first sighting; new pulse slot allocated
)

// Result reports one lookup.
type Result struct {
	QAddr   uint32
	Outcome Outcome
	// Evicted reports whether a valid entry was written back to QSpace to
	// make room.
	Evicted bool
}

// Stats tallies SLT behaviour for the experiment harness.
type Stats struct {
	Lookups    int64
	Hits       int64
	QSpaceHits int64
	Allocs     int64
	Evictions  int64
}

// SLT is one qubit's skip lookup table.
type SLT struct {
	ways    int
	sets    int
	entries [][]entry // [set][way]
	qspace  *QSpace
	alloc   *Allocator
	// owner maps pulse slot → tag, so recycled slots invalidate their old
	// parameter mapping.
	owner map[uint32]uint32

	Stats Stats
	m     instruments
}

// instruments are the registry handles one SLT updates alongside its
// Stats. A bank shares one set of handles across its qubits, so the
// registry sees bank-wide totals.
type instruments struct {
	lookups, hits, qspaceHits, allocs, evictions *metrics.Counter
}

func resolveInstruments(reg *metrics.Registry) instruments {
	return instruments{
		lookups:    reg.Counter("slt.lookups"),
		hits:       reg.Counter("slt.hits"),
		qspaceHits: reg.Counter("slt.qspace_hits"),
		allocs:     reg.Counter("slt.allocs"),
		evictions:  reg.Counter("slt.evictions"),
	}
}

// New returns an SLT with the given geometry backed by qspace and alloc.
// ways and setCount default to the paper's 2×128 via DefaultNew.
func New(ways, setCount int, qspace *QSpace, alloc *Allocator) *SLT {
	if ways <= 0 || setCount <= 0 {
		panic("slt: non-positive geometry")
	}
	s := &SLT{
		ways:    ways,
		sets:    setCount,
		entries: make([][]entry, setCount),
		qspace:  qspace,
		alloc:   alloc,
		owner:   make(map[uint32]uint32),
	}
	for i := range s.entries {
		s.entries[i] = make([]entry, ways)
	}
	return s
}

// DefaultNew returns the Table 2 geometry: 2 ways × 128 entries, a fresh
// QSpace, and an allocator over pulseEntries slots.
func DefaultNew(pulseEntries int) *SLT {
	return New(2, 1<<IndexBits, NewQSpace(), NewAllocator(pulseEntries))
}

// QSpace exposes the backing region (for the system model's DRAM
// accounting).
func (s *SLT) QSpace() *QSpace { return s.qspace }

// Lookup resolves a (type, data) parameter to a pulse QAddress, following
// the four-step workflow of Figure 7.
func (s *SLT) Lookup(typ uint8, data uint32) Result {
	s.Stats.Lookups++
	s.m.lookups.Inc()
	index, tag := Key(typ, data)
	set := s.entries[int(index)%s.sets]

	// ❶ Compare tags across the ways.
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			if set[w].count < MaxCount {
				set[w].count++
			}
			s.Stats.Hits++
			s.m.hits.Inc()
			return Result{QAddr: set[w].qaddr, Outcome: HitSLT}
		}
	}

	// ❷ Miss: choose a victim — invalid first, then least count.
	victim := 0
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].count < set[victim].count {
			victim = w
		}
	}
	evicted := false
	if set[victim].valid {
		// Write back to QSpace (address translation by tag).
		s.qspace.Store(set[victim].tag, set[victim].qaddr)
		s.Stats.Evictions++
		s.m.evictions.Inc()
		evicted = true
	}

	// ❸ Consult QSpace for the requested tag; allocate when absent.
	var qaddr uint32
	outcome := HitQSpace
	if existing, ok := s.qspace.Lookup(tag); ok {
		qaddr = existing
		s.Stats.QSpaceHits++
		s.m.qspaceHits.Inc()
	} else {
		slot := uint32(s.alloc.Alloc())
		if oldTag, used := s.owner[slot]; used {
			// The pulse store wrapped; the old parameter no longer has a
			// pulse anywhere. Drop its QSpace mapping and any SLT entry.
			s.qspace.Invalidate(oldTag)
			s.invalidateTag(oldTag)
		}
		s.owner[slot] = tag
		qaddr = slot
		outcome = Allocated
		s.Stats.Allocs++
		s.m.allocs.Inc()
	}

	// ❹ Update the SLT entry to reflect the current state.
	set[victim] = entry{tag: tag, qaddr: qaddr, valid: true, count: 1}
	return Result{QAddr: qaddr, Outcome: outcome, Evicted: evicted}
}

// AllocateAlways unconditionally allocates a fresh pulse slot without
// consulting the table — the "Qtenon without SLT" ablation, where every
// gate regenerates its pulse.
func (s *SLT) AllocateAlways() uint32 {
	s.Stats.Lookups++
	s.m.lookups.Inc()
	slot := uint32(s.alloc.Alloc())
	if oldTag, used := s.owner[slot]; used {
		s.qspace.Invalidate(oldTag)
		s.invalidateTag(oldTag)
		delete(s.owner, slot)
	}
	s.Stats.Allocs++
	s.m.allocs.Inc()
	return slot
}

// invalidateTag clears any SLT entry holding the tag (the set index of a
// tag is not recoverable from the tag alone, so scan; wraps are rare).
func (s *SLT) invalidateTag(tag uint32) {
	for si := range s.entries {
		for w := range s.entries[si] {
			if s.entries[si][w].valid && s.entries[si][w].tag == tag {
				s.entries[si][w].valid = false
			}
		}
	}
}

// Reset clears all entries and statistics but keeps QSpace contents.
func (s *SLT) Reset() {
	for si := range s.entries {
		for w := range s.entries[si] {
			s.entries[si][w] = entry{}
		}
	}
	s.Stats = Stats{}
}

// Bank is the full .slt segment: one SLT per qubit.
type Bank struct {
	tables []*SLT
}

// NewBank builds a bank of nqubits SLTs, each with its own QSpace and
// pulse allocator of pulseEntries slots.
func NewBank(nqubits, pulseEntries int) *Bank {
	b := &Bank{tables: make([]*SLT, nqubits)}
	for q := range b.tables {
		b.tables[q] = DefaultNew(pulseEntries)
	}
	return b
}

// Qubit returns qubit q's SLT.
func (b *Bank) Qubit(q int) *SLT { return b.tables[q] }

// Instrument attaches every SLT in the bank to a metrics registry with
// one shared set of handles, so "slt.*" counters report bank-wide
// totals. Nil registry detaches.
func (b *Bank) Instrument(reg *metrics.Registry) {
	m := resolveInstruments(reg)
	for _, s := range b.tables {
		s.m = m
	}
}

// NQubits reports the bank width.
func (b *Bank) NQubits() int { return len(b.tables) }

// TotalStats sums statistics across qubits.
func (b *Bank) TotalStats() Stats {
	var t Stats
	for _, s := range b.tables {
		t.Lookups += s.Stats.Lookups
		t.Hits += s.Stats.Hits
		t.QSpaceHits += s.Stats.QSpaceHits
		t.Allocs += s.Stats.Allocs
		t.Evictions += s.Stats.Evictions
	}
	return t
}

// HitRate reports the fraction of lookups served without pulse
// generation (SLT hits plus QSpace hits).
func (st Stats) HitRate() float64 {
	if st.Lookups == 0 {
		return 0
	}
	return float64(st.Hits+st.QSpaceHits) / float64(st.Lookups)
}
