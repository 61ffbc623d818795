package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/metrics"
	"qtenon/internal/qcc"
	"qtenon/internal/slt"
)

// pguState is one PGU of the cycle-by-cycle oracle; current names the
// program entry whose pulse it generates, for the stage-4 write-back.
type pguState struct {
	busy    bool
	remain  int64
	current WorkItem
	done    bool
}

// hw holds the Figure 6 selection primitives the oracle was written
// against, frozen with it: the stage-3 priority encoder and the stage-4
// round-robin arbiter.
var hw frozenHW

type frozenHW struct{}

// PriorityEncoder returns the index of the lowest asserted request line,
// or -1 when none is set.
func (frozenHW) PriorityEncoder(requests []bool) int {
	for i, r := range requests {
		if r {
			return i
		}
	}
	return -1
}

// arbiter grants one asserted request line per call in round-robin
// order, starting after the previous winner.
type arbiter struct {
	width int
	next  int
}

func (frozenHW) NewArbiter(width int) *arbiter { return &arbiter{width: width} }

// Grant returns the granted line, or -1 when no line is asserted; it
// rotates only on a grant.
func (a *arbiter) Grant(requests []bool) int {
	for i := 0; i < a.width; i++ {
		idx := (a.next + i) % a.width
		if requests[idx] {
			a.next = (idx + 1) % a.width
			return idx
		}
	}
	return -1
}

// runCycleByCycle is the pipeline loop as it was before quiet cycles were
// fast-forwarded: one loop iteration per simulated cycle. It is kept
// frozen, with the PGU state array, priority encoder and arbiter above,
// as the reference Run must match exactly.
func runCycleByCycle(p *Pipeline, items []WorkItem, limit int64) (Result, error) {
	var res Result
	if len(items) == 0 {
		return res, nil
	}
	pgus := make([]pguState, p.cfg.PGUs)
	reqs := make([]bool, p.cfg.PGUs)
	free := make([]bool, p.cfg.PGUs)
	arb := hw.NewArbiter(p.cfg.PGUs)
	next := 0

	var s2 WorkItem
	var s2v bool
	var s3 WorkItem
	var s3v bool
	var s2stall int64

	inflight := func() bool {
		if s2v || s3v || s2stall > 0 {
			return true
		}
		for _, g := range pgus {
			if g.busy || g.done {
				return true
			}
		}
		return false
	}

	var cycles int64
	for next < len(items) || inflight() {
		cycles++
		if cycles > limit {
			return res, fmt.Errorf("pipeline: livelock after %d cycles", cycles)
		}

		for i := range pgus {
			reqs[i] = pgus[i].done
		}
		if g := arb.Grant(reqs); g >= 0 {
			if err := p.setStatus(pgus[g].current, qcc.StatusValid); err != nil {
				return res, err
			}
			pgus[g] = pguState{}
			res.Writebacks++
		}

		for i := range pgus {
			if pgus[i].busy {
				pgus[i].remain--
				if pgus[i].remain <= 0 {
					pgus[i].busy = false
					pgus[i].done = true
				}
			}
		}

		stalled := false
		if s3v {
			for i := range pgus {
				free[i] = !pgus[i].busy && !pgus[i].done
			}
			if g := hw.PriorityEncoder(free); g >= 0 {
				pgus[g] = pguState{busy: true, remain: p.cfg.PGULatency, current: s3}
				s3v = false
				busy := int64(0)
				for i := range pgus {
					if pgus[i].busy {
						busy++
					}
				}
				p.gPGUBusy.Set(busy)
			} else {
				stalled = true
				res.StallCycles++
			}
		}

		if s2stall > 0 {
			s2stall--
			res.QSpaceCycles++
		} else if !stalled && s2v && !s3v {
			generate, extra, err := p.decode(s2)
			if err != nil {
				return res, err
			}
			res.Processed++
			s2stall = extra
			if generate {
				s3, s3v = s2, true
			} else {
				res.Skipped++
			}
			s2v = false
		}

		if !stalled && s2stall == 0 && !s2v && next < len(items) {
			s2, s2v = items[next], true
			next++
		}
	}
	res.Cycles = cycles
	res.Generated = res.Writebacks
	p.cProcessed.Add(int64(res.Processed))
	p.cGenerated.Add(int64(res.Generated))
	p.cSkipped.Add(int64(res.Skipped))
	p.cStall.Add(res.StallCycles)
	p.cQSpaceStall.Add(res.QSpaceCycles)
	p.cCycles.Add(res.Cycles)
	return res, nil
}

// twin is one instrumented pipeline of a differential pair.
type twin struct {
	p     *Pipeline
	cache *qcc.Cache
	bank  *slt.Bank
	reg   *metrics.Registry
}

func newTwin(t *testing.T, nq int, cfg Config) twin {
	t.Helper()
	cacheCfg := qcc.DefaultConfig(nq)
	cache, err := qcc.NewCache(cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := slt.NewBank(nq, cacheCfg.PulseEntries)
	p, err := New(cfg, cache, bank)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	p.Instrument(reg)
	return twin{p: p, cache: cache, bank: bank, reg: reg}
}

// sameState reports the first difference between the two twins' program
// entries, SLT statistics and metrics.
func sameState(a, b twin, nq, entries int) error {
	for q := 0; q < nq; q++ {
		for i := 0; i < entries; i++ {
			ea, _ := a.cache.ReadProgram(q, i, qcc.HostAccess)
			eb, _ := b.cache.ReadProgram(q, i, qcc.HostAccess)
			if ea != eb {
				return fmt.Errorf("program[%d][%d]: %+v vs %+v", q, i, ea, eb)
			}
		}
		if sa, sb := a.bank.Qubit(q).Stats, b.bank.Qubit(q).Stats; sa != sb {
			return fmt.Errorf("SLT stats of qubit %d: %+v vs %+v", q, sa, sb)
		}
	}
	if sa, sb := a.reg.Snapshot(), b.reg.Snapshot(); !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("metrics: %+v vs %+v", sa, sb)
	}
	return nil
}

// TestFastForwardMatchesCycleByCycle drives Run and the frozen
// cycle-by-cycle loop over random geometries and several rounds of
// shuffled, partly reloaded programs, so that SLT hits, evictions,
// QSpace hits and status-valid skips all occur, and demands identical
// results, errors, metrics, program entries and SLT statistics. A
// quarter of the runs use a random livelock limit, which both must trip
// at the same cycle.
func TestFastForwardMatchesCycleByCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kinds := []circuit.Kind{circuit.RX, circuit.RY, circuit.RZ, circuit.H, circuit.CZ}
	trials := 400
	if testing.Short() {
		trials = 60
	}
	var hits, evictions, qspaceHits, skips, errs int64
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			PGUs:          1 + rng.Intn(9),
			PGULatency:    1 + rng.Int63n(1200),
			UseSLT:        rng.Intn(4) != 0,
			QSpaceLatency: rng.Int63n(151),
		}
		nq := 1 + rng.Intn(4)
		entries := 1 + rng.Intn(24)
		fast, ref := newTwin(t, nq, cfg), newTwin(t, nq, cfg)
		for round := 0; round < 4; round++ {
			// Reload a random subset of entries. Angles share the low
			// four data bits (one SLT set per type) and come from few
			// tags, so two-way sets overflow and evicted parameters
			// return through QSpace.
			for q := 0; q < nq; q++ {
				for i := 0; i < entries; i++ {
					if round > 0 && rng.Intn(2) == 0 {
						continue
					}
					e := qcc.ProgramEntry{
						Type:   uint8(kinds[rng.Intn(len(kinds))]),
						Data:   uint32(1+rng.Intn(5))<<4 | uint32(rng.Intn(2)),
						Status: qcc.StatusInvalid,
					}
					if rng.Intn(5) == 0 {
						e.RegFlag, e.Data = true, uint32(rng.Intn(4))
					}
					for _, tw := range []twin{fast, ref} {
						if err := tw.cache.WriteProgram(q, i, e, qcc.HostAccess); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for r := 0; r < 4; r++ {
				v := uint32(1+rng.Intn(5)) << 4
				for _, tw := range []twin{fast, ref} {
					if err := tw.cache.WriteReg(r, v, qcc.HostAccess); err != nil {
						t.Fatal(err)
					}
				}
			}
			items := make([]WorkItem, 0, nq*entries)
			for q := 0; q < nq; q++ {
				for i := 0; i < entries; i++ {
					items = append(items, WorkItem{q, i})
				}
			}
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

			limit := fast.p.cycleLimit(len(items))
			if rng.Intn(4) == 0 {
				limit = rng.Int63n(int64(len(items))*cfg.PGULatency/2 + 200)
			}
			before := fast.bank.TotalStats()
			rf, errF := fast.p.run(items, limit)
			rr, errR := runCycleByCycle(ref.p, items, limit)
			if fmt.Sprint(errF) != fmt.Sprint(errR) {
				t.Fatalf("trial %d round %d %+v: error %v, reference %v", trial, round, cfg, errF, errR)
			}
			if rf != rr {
				t.Fatalf("trial %d round %d %+v:\nfast      %+v\nreference %+v", trial, round, cfg, rf, rr)
			}
			if err := sameState(fast, ref, nq, entries); err != nil {
				t.Fatalf("trial %d round %d %+v: %v", trial, round, cfg, err)
			}
			after := fast.bank.TotalStats()
			hits += after.Hits - before.Hits
			evictions += after.Evictions - before.Evictions
			qspaceHits += after.QSpaceHits - before.QSpaceHits
			skips += int64(rf.Skipped)
			if errF != nil {
				errs++
			}
		}
	}
	t.Logf("SLT hits %d, evictions %d, QSpace hits %d, skipped entries %d, livelock trips %d",
		hits, evictions, qspaceHits, skips, errs)
	if hits == 0 || evictions == 0 || qspaceHits == 0 || skips == 0 || errs == 0 {
		t.Errorf("the random programs missed a path: hits %d, evictions %d, QSpace hits %d, skips %d, livelock trips %d",
			hits, evictions, qspaceHits, skips, errs)
	}
}

// FuzzRunMatchesCycleByCycle builds a small program from the seed: up to
// four PGUs of short latency, one or two qubits of up to six entries, and
// one to three rounds of reloads and item lists drawn with repetition. It
// runs the rounds once under Run's own limit to find the longest round's
// cycle count T, then replays them on fresh twins at every limit from 0
// to T+1, and demands that run and the cycle-by-cycle oracle agree on
// results, errors, metrics, program entries and SLT statistics. Repeated
// entries let one cycle hold a write-back and a decode of the same entry,
// and the sweep reaches every livelock edge, neither of which the random
// geometries of TestFastForwardMatchesCycleByCycle are sure to hit.
func FuzzRunMatchesCycleByCycle(f *testing.F) {
	// Seeds 1–32 already catch a write-back applied after its cycle's
	// decode and a last miss that dispatches at limit+1 without failing.
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		kinds := []circuit.Kind{circuit.RX, circuit.RY, circuit.CZ}
		cfg := Config{
			PGUs:          1 + rng.Intn(4),
			PGULatency:    1 + rng.Int63n(6),
			UseSLT:        rng.Intn(4) != 0,
			QSpaceLatency: rng.Int63n(4),
		}
		nq, entries := 1+rng.Intn(2), 1+rng.Intn(6)
		type load struct {
			q, i int
			e    qcc.ProgramEntry
		}
		type round struct {
			loads []load
			regs  [4]uint32
			items []WorkItem
		}
		rounds := make([]round, 1+rng.Intn(3))
		for r := range rounds {
			rd := &rounds[r]
			for q := 0; q < nq; q++ {
				for i := 0; i < entries; i++ {
					if r > 0 && rng.Intn(2) == 0 {
						continue
					}
					// Three tags in one two-way SLT set per type force
					// evictions and QSpace hits.
					e := qcc.ProgramEntry{
						Type:   uint8(kinds[rng.Intn(len(kinds))]),
						Data:   uint32(1+rng.Intn(3))<<4 | uint32(rng.Intn(2)),
						Status: qcc.StatusInvalid,
					}
					if rng.Intn(4) == 0 {
						e.RegFlag, e.Data = true, uint32(rng.Intn(len(rd.regs)))
					}
					rd.loads = append(rd.loads, load{q, i, e})
				}
			}
			for i := range rd.regs {
				rd.regs[i] = uint32(1+rng.Intn(3)) << 4
			}
			rd.items = make([]WorkItem, 1+rng.Intn(3*nq*entries))
			for i := range rd.items {
				rd.items[i] = WorkItem{rng.Intn(nq), rng.Intn(entries)}
			}
		}

		// play runs every round on fresh twins, each under limit(items),
		// and returns the longest round's cycle count.
		play := func(limit func(p *Pipeline, items []WorkItem) int64) int64 {
			fast, ref := newTwin(t, nq, cfg), newTwin(t, nq, cfg)
			var longest int64
			for r, rd := range rounds {
				for _, tw := range []twin{fast, ref} {
					for _, l := range rd.loads {
						if err := tw.cache.WriteProgram(l.q, l.i, l.e, qcc.HostAccess); err != nil {
							t.Fatal(err)
						}
					}
					for i, v := range rd.regs {
						if err := tw.cache.WriteReg(i, v, qcc.HostAccess); err != nil {
							t.Fatal(err)
						}
					}
				}
				lim := limit(fast.p, rd.items)
				rf, errF := fast.p.run(rd.items, lim)
				rr, errR := runCycleByCycle(ref.p, rd.items, lim)
				if fmt.Sprint(errF) != fmt.Sprint(errR) {
					t.Fatalf("round %d limit %d %+v: error %v, reference %v", r, lim, cfg, errF, errR)
				}
				if rf != rr {
					t.Fatalf("round %d limit %d %+v:\nrun       %+v\nreference %+v", r, lim, cfg, rf, rr)
				}
				if err := sameState(fast, ref, nq, entries); err != nil {
					t.Fatalf("round %d limit %d %+v: %v", r, lim, cfg, err)
				}
				longest = max(longest, rf.Cycles)
			}
			return longest
		}
		longest := play(func(p *Pipeline, items []WorkItem) int64 { return p.cycleLimit(len(items)) })
		for limit := int64(0); limit <= longest+1; limit++ {
			play(func(*Pipeline, []WorkItem) int64 { return limit })
		}
	})
}

// TestQSpaceStallsDoNotTripLivelockGuard runs a program that makes
// progress the whole time but, with a one-cycle PGU, spends almost every
// cycle in QSpace stalls: three angles share one two-way SLT set, so
// after warm-up each lookup evicts a parameter and the next recovers it
// from QSpace. The livelock bound once counted only PGU latency and
// stopped this run at cycle 10601.
func TestQSpaceStallsDoNotTripLivelockGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PGULatency = 1
	cfg.QSpaceLatency = 150
	p, cache, _ := rig(t, 1, cfg)
	items := make([]WorkItem, 300)
	for i := range items {
		loadGate(t, cache, 0, i, circuit.RX, qcc.DequantizeAngle(uint32(i%3+1)<<4))
		items[i] = WorkItem{0, i}
	}
	res, err := p.Run(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != len(items) {
		t.Errorf("processed %d of %d entries", res.Processed, len(items))
	}
	if old := int64(len(items))*cfg.PGULatency*2 + 10000; res.Cycles <= old {
		t.Errorf("run took %d cycles, within the PGU-only bound %d; the program no longer exercises the guard", res.Cycles, old)
	}
}

func TestNewRejectsNegativeQSpaceLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QSpaceLatency = -1
	cacheCfg := qcc.DefaultConfig(1)
	cache, err := qcc.NewCache(cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, cache, slt.NewBank(1, cacheCfg.PulseEntries)); err == nil {
		t.Error("New accepted a negative QSpace latency")
	}
}
