package slt

import (
	"math/rand"
	"testing"
)

// TestGeometry checks the constants against Table 2.
func TestGeometry(t *testing.T) {
	if 1<<IndexBits != 128 {
		t.Errorf("index space %d, want 128", 1<<IndexBits)
	}
	if QSpaceBytesPerQubit != 4*1024*1024 {
		t.Errorf("QSpace %d bytes/qubit, want 4 MB", QSpaceBytesPerQubit)
	}
}

func TestKeyDerivation(t *testing.T) {
	// Index = 3 type bits | 4 data bits; tag = next 20 data bits.
	idx, tag := Key(0b101, 0b1111)
	if idx != 0b1011111 {
		t.Errorf("index = %#b, want 1011111", idx)
	}
	if tag != 0 {
		t.Errorf("tag = %d, want 0", tag)
	}
	idx, tag = Key(0, 0xabcde0)
	if idx != 0 {
		t.Errorf("index = %d, want 0", idx)
	}
	if tag != 0xabcde {
		t.Errorf("tag = %#x, want 0xabcde", tag)
	}
	// Type bits above 3 do not affect the index (truncation).
	i1, _ := Key(0b1010, 5)
	i2, _ := Key(0b0010, 5)
	if i1 != i2 {
		t.Errorf("type truncation broken: %d vs %d", i1, i2)
	}
}

func TestFirstLookupAllocates(t *testing.T) {
	s := DefaultNew(1024)
	r := s.Lookup(7, 0x123450)
	if r.Outcome != Allocated {
		t.Fatalf("first lookup outcome = %v", r.Outcome)
	}
	if r.QAddr != 0 {
		t.Errorf("first allocation = %d, want slot 0", r.QAddr)
	}
	if s.Stats.Allocs != 1 || s.Stats.Hits != 0 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

// The core SLT invariant: a repeated parameter returns the same QAddress
// as its first computation, without a new allocation.
func TestRepeatHitsSameAddress(t *testing.T) {
	s := DefaultNew(1024)
	first := s.Lookup(7, 0x123450)
	for i := 0; i < 10; i++ {
		r := s.Lookup(7, 0x123450)
		if r.Outcome != HitSLT {
			t.Fatalf("repeat %d outcome = %v", i, r.Outcome)
		}
		if r.QAddr != first.QAddr {
			t.Fatalf("repeat %d QAddr = %d, want %d", i, r.QAddr, first.QAddr)
		}
	}
	if s.Stats.Hits != 10 || s.Stats.Allocs != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestDistinctParamsDistinctAddresses(t *testing.T) {
	s := DefaultNew(1024)
	seen := map[uint32]bool{}
	for d := uint32(0); d < 100; d++ {
		r := s.Lookup(3, d<<4) // distinct tags, same low bits pattern varies
		if seen[r.QAddr] {
			t.Fatalf("data %d reused QAddr %d", d, r.QAddr)
		}
		seen[r.QAddr] = true
	}
}

func TestEvictionWritesBackAndQSpaceServes(t *testing.T) {
	s := DefaultNew(4096)
	// Three parameters mapping to the same set (same type low bits, same
	// low 4 data bits, different tags) overflow the 2 ways.
	mk := func(tag uint32) uint32 { return tag<<4 | 0x5 }
	a := s.Lookup(2, mk(1))
	b := s.Lookup(2, mk(2))
	c := s.Lookup(2, mk(3)) // evicts one of a/b
	if !c.Evicted {
		t.Fatal("third conflicting insert did not evict")
	}
	if s.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", s.Stats.Evictions)
	}
	if s.QSpace().Writebacks != 1 {
		t.Errorf("qspace writebacks = %d", s.QSpace().Writebacks)
	}
	// Re-looking-up the evicted parameter must return its ORIGINAL pulse
	// address via QSpace, not allocate a new one.
	rA := s.Lookup(2, mk(1))
	rB := s.Lookup(2, mk(2))
	gotA := rA.QAddr == a.QAddr
	gotB := rB.QAddr == b.QAddr
	if !gotA || !gotB {
		t.Errorf("post-eviction addresses changed: a %d→%d b %d→%d", a.QAddr, rA.QAddr, b.QAddr, rB.QAddr)
	}
	if rA.Outcome == Allocated && rB.Outcome == Allocated {
		t.Error("both re-lookups allocated; QSpace not consulted")
	}
}

func TestLeastCountReplacementPrefersColdEntry(t *testing.T) {
	s := DefaultNew(4096)
	mk := func(tag uint32) uint32 { return tag<<4 | 0x1 }
	s.Lookup(1, mk(10)) // way A, count 1
	s.Lookup(1, mk(20)) // way B, count 1
	// Heat up tag 10.
	for i := 0; i < 5; i++ {
		s.Lookup(1, mk(10))
	}
	// Conflict: tag 30 should evict the cold tag 20.
	s.Lookup(1, mk(30))
	// tag 10 must still hit in SLT (not evicted).
	r := s.Lookup(1, mk(10))
	if r.Outcome != HitSLT {
		t.Errorf("hot entry was evicted; outcome = %v", r.Outcome)
	}
	// tag 20 must have gone to QSpace.
	if _, ok := s.QSpace().Lookup(20); !ok {
		t.Error("cold entry not written back to QSpace")
	}
}

func TestCountSaturates(t *testing.T) {
	s := DefaultNew(1024)
	for i := 0; i < MaxCount+20; i++ {
		s.Lookup(1, 0x70)
	}
	// No direct accessor; saturation is observable as continued hits.
	if s.Stats.Hits != int64(MaxCount+19) {
		t.Errorf("hits = %d, want %d", s.Stats.Hits, MaxCount+19)
	}
}

func TestAllocatorWrapInvalidatesRecycledSlot(t *testing.T) {
	// Tiny pulse store: 2 slots. Allocating a third parameter recycles
	// slot 0, so parameter 1 must be re-allocated if seen again.
	s := New(2, 128, NewQSpace(), NewAllocator(2))
	mk := func(tag uint32) uint32 { return tag << 4 }
	r1 := s.Lookup(1, mk(100))
	s.Lookup(1, mk(200))
	r3 := s.Lookup(1, mk(300)) // wraps, recycles slot of r1
	if r3.QAddr != r1.QAddr {
		t.Fatalf("expected slot recycling: r3=%d r1=%d", r3.QAddr, r1.QAddr)
	}
	r1again := s.Lookup(1, mk(100))
	if r1again.Outcome != Allocated {
		t.Errorf("recycled parameter outcome = %v, want Allocated", r1again.Outcome)
	}
}

func TestBank(t *testing.T) {
	b := NewBank(4, 1024)
	if b.NQubits() != 4 {
		t.Fatalf("NQubits = %d", b.NQubits())
	}
	// Same parameter on different qubits allocates independently.
	r0 := b.Qubit(0).Lookup(5, 0x40)
	r1 := b.Qubit(1).Lookup(5, 0x40)
	if r0.Outcome != Allocated || r1.Outcome != Allocated {
		t.Errorf("outcomes = %v, %v", r0.Outcome, r1.Outcome)
	}
	b.Qubit(0).Lookup(5, 0x40)
	ts := b.TotalStats()
	if ts.Lookups != 3 || ts.Hits != 1 || ts.Allocs != 2 {
		t.Errorf("TotalStats = %+v", ts)
	}
	if got := ts.HitRate(); got != 1.0/3 {
		t.Errorf("HitRate = %v", got)
	}
}

func TestHitRateEmptyStats(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate != 0")
	}
}

// Property: under random traffic, (1) a lookup immediately repeated is
// always an SLT hit with the same address, and (2) allocations never hand
// out a slot beyond the pulse store capacity.
func TestRandomTrafficInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := DefaultNew(1024)
	for step := 0; step < 20000; step++ {
		typ := uint8(rng.Intn(16))
		data := uint32(rng.Intn(1 << 12)) // modest tag space forces reuse
		r := s.Lookup(typ, data)
		if r.QAddr >= 1024 {
			t.Fatalf("allocated slot %d beyond capacity", r.QAddr)
		}
		r2 := s.Lookup(typ, data)
		if r2.Outcome != HitSLT || r2.QAddr != r.QAddr {
			t.Fatalf("step %d: immediate repeat missed (outcome %v, %d vs %d)", step, r2.Outcome, r2.QAddr, r.QAddr)
		}
	}
	if s.Stats.Lookups != 40000 {
		t.Errorf("lookups = %d", s.Stats.Lookups)
	}
	if s.Stats.HitRate() < 0.5 {
		t.Errorf("hit rate %v < 0.5 despite immediate repeats", s.Stats.HitRate())
	}
}

func TestReset(t *testing.T) {
	s := DefaultNew(1024)
	s.Lookup(1, 0x10)
	s.QSpace().Store(99, 5)
	s.Reset()
	if s.Stats.Lookups != 0 {
		t.Error("stats not cleared")
	}
	// QSpace retained (it is DRAM, not SLT state).
	if _, ok := s.QSpace().Lookup(99); !ok {
		t.Error("Reset cleared QSpace")
	}
	// After reset the SLT misses but QSpace still resolves prior params…
	// parameter with tag 1 was allocated slot 0; its mapping lives only in
	// the SLT (never evicted), so after Reset it re-resolves via allocation.
	r := s.Lookup(1, 0x10)
	if r.Outcome == HitSLT {
		t.Error("SLT hit after Reset")
	}
}
