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

import (
	"fmt"
	"math/bits"

	"qtenon/internal/metrics"
)

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
//
// A run populates few of the region's 2^20 entries (about 58 per qubit
// on Figure 13; an SLT stores only tags that own pulse slots, so never
// more than the pulse store holds), so the model keeps only those, in
// an open-addressed table: linear probing from a multiplicative hash of
// the tag, at most half full, with backward-shift deletion so no
// tombstone lengthens a probe. The zero QSpace is an empty region. A
// tag outside the region is a bug in the caller and panics.
type QSpace struct {
	slots []qslot // len is zero or a power of two
	shift uint    // 32 − log2(len(slots))
	n     int     // populated slots
	// Writebacks counts the evicted mappings stored back.
	Writebacks int64
}

// qslot is one populated entry; key is tag+1, so the zero slot is empty.
type qslot struct{ key, qaddr uint32 }

// key maps a tag to its slot key, rejecting tags outside the region.
func key(tag uint32) uint32 {
	if tag >= QSpaceEntriesPerQubit {
		panic(fmt.Sprintf("slt: QSpace tag %#x outside the 2^%d-entry region", tag, TagBits))
	}
	return tag + 1
}

// home is the slot where a key's probe sequence starts.
func (q *QSpace) home(k uint32) int { return int(k * 0x9e3779b1 >> q.shift) }

// find returns the slot holding k, or the empty slot that ends its probe
// sequence. The table must be non-empty.
func (q *QSpace) find(k uint32) int {
	mask := len(q.slots) - 1
	i := q.home(k)
	for q.slots[i].key != k && q.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Lookup consults the region for a tag.
func (q *QSpace) Lookup(tag uint32) (qaddr uint32, ok bool) {
	k := key(tag)
	if q.n == 0 {
		return 0, false
	}
	s := q.slots[q.find(k)]
	return s.qaddr, s.key == k
}

// Store writes back an evicted mapping.
func (q *QSpace) Store(tag, qaddr uint32) {
	k := key(tag)
	q.Writebacks++
	if 2*(q.n+1) > len(q.slots) {
		q.grow()
	}
	i := q.find(k)
	if q.slots[i].key == 0 {
		q.n++
	}
	q.slots[i] = qslot{k, qaddr}
}

// grow doubles the table (to 16 slots at first) and reinserts every
// populated slot.
func (q *QSpace) grow() {
	old := q.slots
	size := max(16, 2*len(old))
	q.slots = make([]qslot, size)
	q.shift = 32 - uint(bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			q.slots[q.find(s.key)] = s
		}
	}
}

// Invalidate removes a mapping (used when its pulse slot is recycled).
// The entries after it in its probe run shift back over the hole unless
// that would move one before its home slot.
func (q *QSpace) Invalidate(tag uint32) {
	k := key(tag)
	if q.n == 0 {
		return
	}
	hole := q.find(k)
	if q.slots[hole].key == 0 {
		return
	}
	q.n--
	mask := len(q.slots) - 1
	for j := (hole + 1) & mask; q.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole when the hole lies on its probe
		// path, home(j) … j.
		if (j-q.home(q.slots[j].key))&mask >= (j-hole)&mask {
			q.slots[hole] = q.slots[j]
			hole = j
		}
	}
	q.slots[hole] = qslot{}
}

// Allocator hands out .pulse entry indices for one qubit. When the pulse
// store wraps, the recycled slot's old parameter mapping must be
// invalidated everywhere, which the SLT handles through the owner
// callback.
type Allocator struct {
	capacity int
	next     int
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
	entries []entry // set-major: set i holds entries[i*ways : (i+1)*ways]
	qspace  *QSpace
	alloc   *Allocator
	// owner[slot] is the tag whose pulse the slot holds, or noOwner, so a
	// recycled slot invalidates its old parameter mapping. Slots are
	// handed out in order, so it grows by append to the pulse store's
	// size.
	owner []uint32

	Stats Stats
	m     instruments
}

// noOwner marks a pulse slot no tag owns; tags have TagBits bits.
const noOwner = ^uint32(0)

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

// QSpace exposes the backing region (for the system model's DRAM
// accounting).
func (s *SLT) QSpace() *QSpace { return s.qspace }

// Lookup resolves a (type, data) parameter to a pulse QAddress, following
// the four-step workflow of Figure 7.
func (s *SLT) Lookup(typ uint8, data uint32) Result {
	s.Stats.Lookups++
	s.m.lookups.Inc()
	index, tag := Key(typ, data)
	first := int(index) % s.sets * s.ways
	set := s.entries[first : first+s.ways]

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
		qaddr = uint32(s.takeSlot(tag))
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
	slot := s.takeSlot(noOwner)
	s.Stats.Allocs++
	s.m.allocs.Inc()
	return uint32(slot)
}

// takeSlot allocates a pulse slot for owner (a tag, or noOwner). When
// the pulse store has wrapped, the slot's old parameter no longer has a
// pulse anywhere, so its QSpace mapping and any SLT entry holding its
// tag are dropped.
func (s *SLT) takeSlot(owner uint32) int {
	slot := s.alloc.Alloc()
	for len(s.owner) <= slot {
		s.owner = append(s.owner, noOwner)
	}
	if old := s.owner[slot]; old != noOwner {
		s.qspace.Invalidate(old)
		s.invalidateTag(old)
	}
	s.owner[slot] = owner
	return slot
}

// invalidateTag clears any SLT entry holding the tag (the set index of a
// tag is not recoverable from the tag alone, so scan; wraps are rare).
func (s *SLT) invalidateTag(tag uint32) {
	for i := range s.entries {
		if s.entries[i].valid && s.entries[i].tag == tag {
			s.entries[i].valid = false
		}
	}
}

// Reset clears all entries and statistics but keeps QSpace contents.
func (s *SLT) Reset() {
	clear(s.entries)
	s.Stats = Stats{}
}

// Bank is the full .slt segment: one SLT per qubit. Its tables, their
// sets, QSpaces and allocators each come from one bank-wide allocation.
type Bank struct {
	tables []SLT
}

// NewBank builds a bank of nqubits SLTs in the Table 2 geometry (2 ways
// × 128 sets), each with its own QSpace and pulse allocator of
// pulseEntries slots.
func NewBank(nqubits, pulseEntries int) *Bank {
	if pulseEntries <= 0 {
		panic("slt: non-positive allocator capacity")
	}
	const ways, sets = 2, 1 << IndexBits
	const per = ways * sets
	b := &Bank{tables: make([]SLT, nqubits)}
	entries := make([]entry, nqubits*per)
	qspaces := make([]QSpace, nqubits)
	allocs := make([]Allocator, nqubits)
	for q := range b.tables {
		allocs[q].capacity = pulseEntries
		b.tables[q] = SLT{
			ways:    ways,
			sets:    sets,
			entries: entries[q*per : (q+1)*per : (q+1)*per],
			qspace:  &qspaces[q],
			alloc:   &allocs[q],
		}
	}
	return b
}

// Qubit returns qubit q's SLT.
func (b *Bank) Qubit(q int) *SLT { return &b.tables[q] }

// Instrument attaches every SLT in the bank to a metrics registry with
// one shared set of handles, so "slt.*" counters report bank-wide
// totals. Nil registry detaches.
func (b *Bank) Instrument(reg *metrics.Registry) {
	m := resolveInstruments(reg)
	for q := range b.tables {
		b.tables[q].m = m
	}
}

// NQubits reports the bank width.
func (b *Bank) NQubits() int { return len(b.tables) }

// TotalStats sums statistics across qubits.
func (b *Bank) TotalStats() Stats {
	var t Stats
	for q := range b.tables {
		s := &b.tables[q].Stats
		t.Lookups += s.Lookups
		t.Hits += s.Hits
		t.QSpaceHits += s.QSpaceHits
		t.Allocs += s.Allocs
		t.Evictions += s.Evictions
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
