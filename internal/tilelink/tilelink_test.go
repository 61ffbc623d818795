package tilelink

import (
	"math/rand"
	"testing"

	"qtenon/internal/metrics"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Tags: 0, BeatBytes: 32, MinLatency: 1, MaxLatency: 2},
		{Tags: 33, BeatBytes: 32, MinLatency: 1, MaxLatency: 2},
		{Tags: 8, BeatBytes: 0, MinLatency: 1, MaxLatency: 2},
		{Tags: 8, BeatBytes: 32, MinLatency: 5, MaxLatency: 2},
		{Tags: 8, BeatBytes: 32, MinLatency: 0, MaxLatency: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestBusTagExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tags = 4
	bus, err := NewBus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, ok := bus.TrySubmit(Request{Addr: uint64(i)}); !ok {
			t.Fatalf("submit %d refused with free tags", i)
		}
	}
	if _, ok := bus.TrySubmit(Request{}); ok {
		t.Error("submit accepted with all tags outstanding")
	}
	// Drain: after enough ticks all four complete and tags free up.
	for c := 0; c < cfg.MaxLatency+1; c++ {
		bus.Tick()
	}
	n := 0
	for {
		if _, ok := bus.PopResponse(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("completions = %d, want 4", n)
	}
	if _, ok := bus.TrySubmit(Request{}); !ok {
		t.Error("submit refused after tags released")
	}
}

func TestBusLatencyWindow(t *testing.T) {
	cfg := DefaultConfig()
	bus, _ := NewBus(cfg)
	tag, _ := bus.TrySubmit(Request{Addr: 0x100})
	_ = tag
	ticks := 0
	for {
		bus.Tick()
		ticks++
		if r, ok := bus.PopResponse(); ok {
			_ = r
			break
		}
		if ticks > cfg.MaxLatency+1 {
			t.Fatalf("no completion after %d cycles", ticks)
		}
	}
	if ticks < cfg.MinLatency {
		t.Errorf("completed after %d cycles, below MinLatency %d", ticks, cfg.MinLatency)
	}
}

func TestBusReadDataDeterministic(t *testing.T) {
	mk := func() uint64 {
		bus, _ := NewBus(DefaultConfig())
		bus.TrySubmit(Request{Addr: 0xabc})
		for i := 0; i < 40; i++ {
			bus.Tick()
		}
		r, ok := bus.PopResponse()
		if !ok {
			t.Fatal("no response")
		}
		return r.Data
	}
	if mk() != mk() {
		t.Error("read data not deterministic for same address")
	}
}

func TestRBQInOrderRetirement(t *testing.T) {
	r := NewRBQ(4, 4, 16)
	// Issue order: tags 2, 0, 1. Deliver out of order: 1, 2, 0.
	r.PushOrder(2)
	r.PushOrder(0)
	r.PushOrder(1)
	if err := r.Deliver(1, 111); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop succeeded before head-of-line data arrived")
	}
	r.Deliver(2, 222)
	r.Deliver(0, 0)
	want := []uint64{222, 0, 111}
	for i, w := range want {
		d, ok := r.Pop()
		if !ok || d != w {
			t.Fatalf("pop %d = %d,%v, want %d", i, d, ok, w)
		}
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d", r.Pending())
	}
}

func TestRBQErrors(t *testing.T) {
	r := NewRBQ(2, 1, 4)
	if err := r.Deliver(5, 0); err == nil {
		t.Error("Deliver accepted invalid tag")
	}
	r.Deliver(0, 1)
	if err := r.Deliver(0, 2); err == nil {
		t.Error("Deliver accepted per-tag overflow")
	}
}

// Property: for any random permutation of deliveries, the RBQ pops data
// in exact issue order. Tags are reused after retirement, as on the bus.
func TestRBQReorderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		const tags = 8
		n := 1 + rng.Intn(30)
		r := NewRBQ(tags, 8, 64)
		// Issue with round-robin tags; value = issue index.
		type issue struct {
			tag int
			val uint64
		}
		issues := make([]issue, n)
		for i := range issues {
			issues[i] = issue{tag: i % tags, val: uint64(i)}
			if !r.PushOrder(issues[i].tag) {
				t.Fatal("order queue full")
			}
		}
		// Deliver in random order, but per-tag deliveries must stay in
		// issue order (the bus guarantees per-tag ordering because a tag is
		// not reused until retired; here the per-tag queue preserves it).
		perTag := map[int][]uint64{}
		for _, is := range issues {
			perTag[is.tag] = append(perTag[is.tag], is.val)
		}
		tagsLeft := make([]int, 0, len(perTag))
		for tg := range perTag {
			tagsLeft = append(tagsLeft, tg)
		}
		for len(tagsLeft) > 0 {
			i := rng.Intn(len(tagsLeft))
			tg := tagsLeft[i]
			r.Deliver(tg, perTag[tg][0])
			perTag[tg] = perTag[tg][1:]
			if len(perTag[tg]) == 0 {
				tagsLeft = append(tagsLeft[:i], tagsLeft[i+1:]...)
			}
		}
		for want := uint64(0); want < uint64(n); want++ {
			d, ok := r.Pop()
			if !ok || d != want {
				t.Fatalf("trial %d: pop = %d,%v, want %d", trial, d, ok, want)
			}
		}
	}
}

func TestBarrier(t *testing.T) {
	b := NewBarrier()
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	if b.Query(0x1000) {
		t.Error("fresh barrier reports synced")
	}
	b.MarkSynced(0x1000)
	if !b.Query(0x1000) {
		t.Error("marked address not synced")
	}
	b.MarkRange(0x2000, 4, 8)
	for i := 0; i < 4; i++ {
		if !b.Query(0x2000 + uint64(i*8)) {
			t.Errorf("range address %d not synced", i)
		}
	}
	if b.Query(0x2020) {
		t.Error("address beyond range synced")
	}
	if q := reg.Counter("tilelink.barrier_queries").Value(); q != 7 {
		t.Errorf("barrier_queries = %d, want 7", q)
	}
	b.Reset()
	if b.Query(0x1000) {
		t.Error("Reset did not clear")
	}
}

// TestBarrierMatchesMap drives the barrier and a map of every marked
// address with random MarkSynced, MarkRange, Query and Reset calls:
// ranges of n ≤ 0, stride 0, strides that wrap i·stride past 2^64, and
// bases near 2^64 whose addresses wrap to the bottom of the space.
func TestBarrierMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	strides := []uint64{0, 1, 8, 64, 1 << 32, 1 << 63, 1<<63 + 1, ^uint64(0), 0x9e3779b97f4a7c15}
	bases := []uint64{0, 0x9000_0000, ^uint64(0), ^uint64(0) - 40}
	addr := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return bases[rng.Intn(len(bases))] + uint64(rng.Intn(96))
		case 1:
			return bases[rng.Intn(len(bases))] - uint64(rng.Intn(96))
		}
		return rng.Uint64()
	}
	for trial := 0; trial < 200; trial++ {
		b := NewBarrier()
		reg := metrics.NewRegistry()
		b.Instrument(reg)
		want := map[uint64]bool{}
		var marked []uint64
		queries := int64(0)
		for op := 0; op < 60; op++ {
			switch k := rng.Intn(10); {
			case k == 0:
				b.Reset()
				want = map[uint64]bool{}
			case k <= 2:
				a := addr()
				b.MarkSynced(a)
				want[a] = true
				marked = append(marked, a)
			case k <= 5:
				a, n := addr(), rng.Intn(24)-3
				stride := strides[rng.Intn(len(strides))]
				if rng.Intn(2) == 0 {
					stride = uint64(rng.Intn(32))
				}
				b.MarkRange(a, n, stride)
				for i := 0; i < n; i++ {
					want[a+uint64(i)*stride] = true
					marked = append(marked, a+uint64(i)*stride)
				}
			default:
				a := addr()
				if len(marked) > 0 && rng.Intn(2) == 0 {
					a = marked[rng.Intn(len(marked))] + uint64(rng.Intn(3)) - 1
				}
				queries++
				if got := b.Query(a); got != want[a] {
					t.Fatalf("trial %d op %d: Query(%#x) = %v, map says %v", trial, op, a, got, want[a])
				}
			}
		}
		if got := reg.Counter("tilelink.barrier_queries").Value(); got != queries {
			t.Fatalf("trial %d: barrier_queries = %d, want %d", trial, got, queries)
		}
	}
}

func TestTransferReadInOrder(t *testing.T) {
	bus, _ := NewBus(DefaultConfig())
	rbq := NewRBQ(32, 8, 4096)
	res, err := Transfer(bus, rbq, 0x8000, 64, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 64 {
		t.Fatalf("data beats = %d", len(res.Data))
	}
	// In-order: beat i's data is the deterministic hash of its address.
	for i, d := range res.Data {
		want := (0x8000+uint64(i*32))*0x9e3779b97f4a7c15 + 0x12345
		if d != want {
			t.Fatalf("beat %d out of order", i)
		}
	}
	if res.Cycles <= 0 {
		t.Error("zero transfer time")
	}
}

func TestTransferWrite(t *testing.T) {
	bus, _ := NewBus(DefaultConfig())
	rbq := NewRBQ(32, 8, 4096)
	data := make([]uint64, 16)
	for i := range data {
		data[i] = uint64(i * 7)
	}
	res, err := Transfer(bus, rbq, 0, 16, true, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Beats != 16 {
		t.Errorf("beats = %d", res.Beats)
	}
	if _, err := Transfer(bus, rbq, 0, 4, true, data[:2]); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := Transfer(bus, rbq, 0, 0, false, nil); err == nil {
		t.Error("zero beats accepted")
	}
}

func TestTransferPipelining(t *testing.T) {
	// With 32 tags and ~20-cycle latency, a long transfer must approach
	// one beat per cycle, far better than beats × latency.
	cfg := DefaultConfig()
	bus, _ := NewBus(cfg)
	rbq := NewRBQ(32, 8, 65536)
	const beats = 1000
	res, err := Transfer(bus, rbq, 0, beats, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > beats*2 {
		t.Errorf("transfer took %d cycles for %d beats; pipelining broken", res.Cycles, beats)
	}
	if res.Cycles < beats {
		t.Errorf("transfer took %d cycles, below issue bound %d", res.Cycles, beats)
	}
	// Closed-form estimate within 2× of simulation.
	est := StreamCycles(cfg, beats)
	ratio := float64(res.Cycles) / float64(est)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("StreamCycles estimate %d vs simulated %d", est, res.Cycles)
	}
}

func TestTransferTagLimited(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tags = 2 // tiny tag pool forces stalls
	bus, _ := NewBus(cfg)
	rbq := NewRBQ(2, 8, 4096)
	res, err := Transfer(bus, rbq, 0, 50, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles == 0 {
		t.Error("no stalls with 2 tags and 20-cycle latency")
	}
	// Roughly latency/2 cycles per beat with 2 tags.
	if res.Cycles < 200 {
		t.Errorf("tag-limited transfer suspiciously fast: %d cycles", res.Cycles)
	}
}

func TestStreamCyclesEdge(t *testing.T) {
	if StreamCycles(DefaultConfig(), 0) != 0 {
		t.Error("zero beats nonzero estimate")
	}
}

// TestRBQOrderCapacityBound drives long writes through an RBQ whose order
// queue holds exactly tags*(depth+1) entries, the bound NewRBQ states,
// over tag counts, latency windows and seeds. No transfer may fail, and
// the tilelink.rbq_pending high-water must stay within that capacity.
func TestRBQOrderCapacityBound(t *testing.T) {
	const depth, beats = 8, 2000
	data := make([]uint64, beats)
	windows := [][2]int{{1, 1}, {12, 28}, {1, 200}, {50, 400}}
	var highest float64
	for _, tags := range []int{1, 2, 8, 32} {
		for _, w := range windows {
			for seed := int64(1); seed <= 5; seed++ {
				cfg := Config{Tags: tags, BeatBytes: 32, MinLatency: w[0], MaxLatency: w[1], Seed: seed}
				bus, err := NewBus(cfg)
				if err != nil {
					t.Fatal(err)
				}
				capacity := tags * (depth + 1)
				rbq := NewRBQ(tags, depth, capacity)
				reg := metrics.NewRegistry()
				rbq.Instrument(reg)
				if _, err := Transfer(bus, rbq, 0, beats, true, data); err != nil {
					t.Fatalf("tags %d, latency %v, seed %d: %v", tags, w, seed, err)
				}
				high := reg.Gauge("tilelink.rbq_pending").High()
				if high > int64(capacity) {
					t.Fatalf("tags %d, latency %v, seed %d: rbq_pending high-water %d above capacity %d",
						tags, w, seed, high, capacity)
				}
				highest = max(highest, float64(high)/float64(capacity))
			}
		}
	}
	t.Logf("highest rbq_pending high-water: %.0f%% of capacity", 100*highest)
}
