package slt

import (
	"math/rand"
	"testing"
)

// The map-based SLT as it stood before the flat bank: QSpace and the
// pulse-slot owners in Go maps, and one slice of ways per set. It is
// frozen here as the oracle for the open-addressed QSpace, the
// slot-indexed owners and the flat sets. Only the storage differs; the
// Figure 7 workflow is the same code.

type frozenQSpace struct {
	slots      map[uint32]uint32
	Writebacks int64
}

func newFrozenQSpace() *frozenQSpace { return &frozenQSpace{slots: make(map[uint32]uint32)} }

func (q *frozenQSpace) Lookup(tag uint32) (uint32, bool) {
	qaddr, ok := q.slots[tag]
	return qaddr, ok
}

func (q *frozenQSpace) Store(tag, qaddr uint32) {
	q.slots[tag] = qaddr
	q.Writebacks++
}

func (q *frozenQSpace) Invalidate(tag uint32) { delete(q.slots, tag) }

type frozenSLT struct {
	entries [][]entry
	qspace  *frozenQSpace
	alloc   *Allocator
	owner   map[uint32]uint32
	Stats   Stats
}

func newFrozenSLT(ways, setCount, pulseEntries int) *frozenSLT {
	s := &frozenSLT{
		entries: make([][]entry, setCount),
		qspace:  newFrozenQSpace(),
		alloc:   NewAllocator(pulseEntries),
		owner:   make(map[uint32]uint32),
	}
	for i := range s.entries {
		s.entries[i] = make([]entry, ways)
	}
	return s
}

func (s *frozenSLT) Lookup(typ uint8, data uint32) Result {
	s.Stats.Lookups++
	index, tag := Key(typ, data)
	set := s.entries[int(index)%len(s.entries)]
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			if set[w].count < MaxCount {
				set[w].count++
			}
			s.Stats.Hits++
			return Result{QAddr: set[w].qaddr, Outcome: HitSLT}
		}
	}
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
		s.qspace.Store(set[victim].tag, set[victim].qaddr)
		s.Stats.Evictions++
		evicted = true
	}
	var qaddr uint32
	outcome := HitQSpace
	if existing, ok := s.qspace.Lookup(tag); ok {
		qaddr = existing
		s.Stats.QSpaceHits++
	} else {
		slot := uint32(s.alloc.Alloc())
		if oldTag, used := s.owner[slot]; used {
			s.qspace.Invalidate(oldTag)
			s.invalidateTag(oldTag)
		}
		s.owner[slot] = tag
		qaddr = slot
		outcome = Allocated
		s.Stats.Allocs++
	}
	set[victim] = entry{tag: tag, qaddr: qaddr, valid: true, count: 1}
	return Result{QAddr: qaddr, Outcome: outcome, Evicted: evicted}
}

func (s *frozenSLT) AllocateAlways() uint32 {
	s.Stats.Lookups++
	slot := uint32(s.alloc.Alloc())
	if oldTag, used := s.owner[slot]; used {
		s.qspace.Invalidate(oldTag)
		s.invalidateTag(oldTag)
		delete(s.owner, slot)
	}
	s.Stats.Allocs++
	return slot
}

func (s *frozenSLT) invalidateTag(tag uint32) {
	for si := range s.entries {
		for w := range s.entries[si] {
			if s.entries[si][w].valid && s.entries[si][w].tag == tag {
				s.entries[si][w].valid = false
			}
		}
	}
}

func (s *frozenSLT) Reset() {
	for si := range s.entries {
		for w := range s.entries[si] {
			s.entries[si][w] = entry{}
		}
	}
	s.Stats = Stats{}
}

// fuzzTags is the tag space the fuzz target draws from: a run of small
// tags, so lookups and direct stores collide on the same mappings, and
// a few spread over the 20-bit range, the extremes included.
var fuzzTags = [32]uint32{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
	16, 17, 18, 19, 20, 21, 22, 23,
	1<<TagBits - 1, 1<<TagBits - 2, 1 << (TagBits - 1), 0xabcde, 0x12345, 0x80001, 0x3ffff, 0xfff00,
}

// FuzzSLTMatchesFrozen drives the SLT and the frozen map-based oracle
// with one op sequence and demands the same behaviour after every op.
//
// The first three bytes pick a geometry of 1–4 ways and 1–128 sets and a
// pulse store of 1–16 slots, so the allocator wraps and invalidateTag
// runs; the fourth byte's low bit builds the SLT as qubit 1 of a
// two-qubit NewBank instead, in the Table 2 geometry. Each later byte
// pair is one op: a Lookup whose data puts a tag from fuzzTags above low
// bits that vary its set (so one tag can own two slots), AllocateAlways,
// Reset, or a direct QSpace Store, Invalidate or Lookup. After each op
// the Result, Stats, Writebacks and a QSpace lookup of every tag in
// fuzzTags must agree.
func FuzzSLTMatchesFrozen(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 0, 0, 16, 0, 32, 0, 48})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 1, 0, 0, 1})
	f.Add([]byte{3, 127, 15, 1, 0, 0, 6, 1, 7, 0, 6, 40, 7, 1, 0, 0})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 48; i++ {
		buf := make([]byte, 4+2*rng.Intn(600))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 4 {
			return
		}
		ways, sets, pulse := 1+int(ops[0]%4), 1+int(ops[1]%128), 1+int(ops[2]%16)
		var s *SLT
		var bank *Bank
		if ops[3]&1 != 0 {
			ways, sets = 2, 1<<IndexBits
			bank = NewBank(2, pulse)
			s = bank.Qubit(1)
		} else {
			s = New(ways, sets, NewQSpace(), NewAllocator(pulse))
		}
		want := newFrozenSLT(ways, sets, pulse)
		for i := 4; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			tag := fuzzTags[arg%32]
			switch op % 8 {
			case 0, 1, 2, 3:
				typ := op >> 3
				data := tag<<4 | uint32(arg>>5)<<1 | uint32(op>>6&1)
				if got, w := s.Lookup(typ, data), want.Lookup(typ, data); got != w {
					t.Fatalf("op %d: Lookup(%d, %#x) = %+v, frozen %+v", i, typ, data, got, w)
				}
			case 4:
				if got, w := s.AllocateAlways(), want.AllocateAlways(); got != w {
					t.Fatalf("op %d: AllocateAlways = %d, frozen %d", i, got, w)
				}
			case 5:
				s.Reset()
				want.Reset()
			case 6:
				qaddr := uint32(op)<<8 | uint32(arg)
				s.QSpace().Store(tag, qaddr)
				want.qspace.Store(tag, qaddr)
			case 7:
				s.QSpace().Invalidate(tag)
				want.qspace.Invalidate(tag)
			}
			if s.Stats != want.Stats {
				t.Fatalf("op %d: Stats = %+v, frozen %+v", i, s.Stats, want.Stats)
			}
			if got, w := s.QSpace().Writebacks, want.qspace.Writebacks; got != w {
				t.Fatalf("op %d: Writebacks = %d, frozen %d", i, got, w)
			}
			for _, seen := range fuzzTags {
				qa, ok := s.QSpace().Lookup(seen)
				wqa, wok := want.qspace.Lookup(seen)
				if ok != wok || qa != wqa {
					t.Fatalf("op %d: QSpace.Lookup(%#x) = %d, %v, frozen %d, %v", i, seen, qa, ok, wqa, wok)
				}
			}
		}
		if bank != nil {
			if st := bank.Qubit(0).Stats; st != (Stats{}) {
				t.Fatalf("qubit 0 of the bank changed: %+v", st)
			}
			for _, tag := range fuzzTags {
				if _, ok := bank.Qubit(0).QSpace().Lookup(tag); ok {
					t.Fatalf("qubit 0's QSpace holds tag %#x", tag)
				}
			}
		}
	})
}
