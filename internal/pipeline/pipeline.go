// Package pipeline implements the four-stage pulse-computation pipeline
// of §5.3 / Figure 6, cycle-accurately:
//
//	Stage 1  read the circuit definition from the Program Index Buffer
//	Stage 2  decode; fetch Regfile if R=1; query the SLT when Status=0
//	Stage 3  dispatch to a free PGU via priority encoder (stall S1/S2
//	         when all PGUs are busy; S4 is decoupled by ready/valid)
//	Stage 4  arbitrate PGU completions and write pulses to the pulse cache
//
// The model is cycle-exact with real data flowing through: program
// entries are read from and written back to the quantum controller cache,
// SLT lookups hit the slt.Bank, and completed PGUs store genuine
// synthesized pulse entries. Run steps cycle by cycle while any stage can
// act and jumps over quiet stretches, where the only changes are PGU
// countdowns and the cycle and stall counters, in one step; host cost
// therefore follows pipeline events, not simulated cycles.
package pipeline

import (
	"fmt"

	"qtenon/internal/circuit"
	"qtenon/internal/hw"
	"qtenon/internal/metrics"
	"qtenon/internal/pulse"
	"qtenon/internal/qcc"
	"qtenon/internal/slt"
)

// WorkItem names one program entry to process.
type WorkItem struct {
	Qubit int
	Index int
}

// Config sets pipeline geometry.
type Config struct {
	PGUs       int   // parallel pulse generation units (paper: 8)
	PGULatency int64 // cycles per pulse (paper: 1000)
	UseSLT     bool  // false = ablation: always generate
	// QSpaceLatency is the extra stage-2 stall (cycles) when an SLT miss
	// consults QSpace over datapath ❸ — a DRAM-class access (Figure 7
	// steps ❷–❸). Evictions add the same cost again for the write-back.
	QSpaceLatency int64
	Timing        circuit.Timing
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{PGUs: 8, PGULatency: 1000, UseSLT: true, QSpaceLatency: 100, Timing: circuit.DefaultTiming()}
}

// Result reports one pipeline run.
type Result struct {
	Cycles       int64 // total cycles from first fetch to last writeback
	Processed    int   // entries examined
	Generated    int   // pulses actually synthesized (SLT misses)
	Skipped      int   // entries resolved without generation
	StallCycles  int64 // cycles stages 1–2 were stalled on busy PGUs
	QSpaceCycles int64 // stage-2 stalls on QSpace accesses (datapath ❸)
	Writebacks   int   // pulse cache writes
}

// Pipeline binds the hardware resources the four stages touch.
type Pipeline struct {
	cfg   Config
	cache *qcc.Cache
	bank  *slt.Bank
	pgu   *pulse.PGU

	// Per-run scratch (PGU states, the stage-3/4 request vectors and the
	// packed pulse of a write-back), recycled across Run calls so the
	// per-cycle loop does not allocate.
	pguScratch   []pguState
	boolScratch  []bool
	pulseScratch []pulse.Entry

	cProcessed, cGenerated, cSkipped *metrics.Counter
	cStall, cQSpaceStall, cCycles    *metrics.Counter
	gPGUBusy                         *metrics.Gauge
}

// Instrument attaches the pipeline to a metrics registry under the
// "pulse" component: processed/generated/skipped entry counts, stall
// cycles, total pipeline cycles, and a PGU-occupancy gauge whose
// high-water mark is the peak number of simultaneously busy PGUs. It
// also instruments the SLT bank the pipeline queries. Nil registry
// detaches.
func (p *Pipeline) Instrument(reg *metrics.Registry) {
	p.cProcessed = reg.Counter("pulse.processed")
	p.cGenerated = reg.Counter("pulse.generated")
	p.cSkipped = reg.Counter("pulse.skipped")
	p.cStall = reg.Counter("pulse.stall_cycles")
	p.cQSpaceStall = reg.Counter("pulse.qspace_stall_cycles")
	p.cCycles = reg.Counter("pulse.cycles")
	p.gPGUBusy = reg.Gauge("pulse.pgu_busy")
	p.bank.Instrument(reg)
}

// New builds a pipeline over the controller cache and SLT bank.
func New(cfg Config, cache *qcc.Cache, bank *slt.Bank) (*Pipeline, error) {
	if cfg.PGUs <= 0 || cfg.PGULatency <= 0 {
		return nil, fmt.Errorf("pipeline: non-positive PGU geometry %+v", cfg)
	}
	if cfg.QSpaceLatency < 0 {
		return nil, fmt.Errorf("pipeline: negative QSpace latency %d", cfg.QSpaceLatency)
	}
	if cache.Config().NQubits != bank.NQubits() {
		return nil, fmt.Errorf("pipeline: cache has %d qubits, SLT bank %d", cache.Config().NQubits, bank.NQubits())
	}
	p := &Pipeline{cfg: cfg, cache: cache, bank: bank, pgu: pulse.NewPGU()}
	p.pgu.LatencyCycle = cfg.PGULatency
	return p, nil
}

// job is the payload flowing from stage 2 to a PGU.
type job struct {
	qubit int
	index int // program entry index (for status writeback)
	kind  circuit.Kind
	data  uint32 // quantized angle after regfile resolution
	qaddr uint32 // pulse slot
}

type pguState struct {
	busy    bool
	remain  int64
	current job
	done    bool
}

// Run processes the work items in order and returns cycle-accurate
// results. It mutates the cache: program entries get their QAddr/Status
// fields updated and generated pulses land in the .pulse segment.
func (p *Pipeline) Run(items []WorkItem) (Result, error) {
	return p.run(items, p.cycleLimit(len(items)))
}

// cycleLimit bounds a run over n items; a run past it is reported as a
// livelock. Each item costs at most two PGU latencies and one QSpace
// stall.
func (p *Pipeline) cycleLimit(n int) int64 {
	return int64(n)*(p.cfg.PGULatency*2+p.cfg.QSpaceLatency) + 10000
}

// run is Run with an explicit livelock limit.
func (p *Pipeline) run(items []WorkItem, limit int64) (Result, error) {
	var res Result
	if len(items) == 0 {
		return res, nil
	}

	if cap(p.pguScratch) < p.cfg.PGUs {
		p.pguScratch = make([]pguState, p.cfg.PGUs)
		p.boolScratch = make([]bool, 2*p.cfg.PGUs)
	}
	pgus := p.pguScratch[:p.cfg.PGUs]
	for i := range pgus {
		pgus[i] = pguState{}
	}
	// reqs/free are the stage-4 and stage-3 per-cycle request vectors;
	// splitting one scratch array keeps the cycle loop allocation-free.
	reqs := p.boolScratch[:p.cfg.PGUs]
	free := p.boolScratch[p.cfg.PGUs : 2*p.cfg.PGUs]
	// A fresh arbiter per run keeps the round-robin grant rotation (and
	// therefore cycle-exact timing) independent of prior runs.
	arb := hw.NewArbiter(p.cfg.PGUs)
	next := 0 // next item to fetch (stage 1 pointer)

	// Stage latches (value + valid flag, so latching never allocates).
	var s2 WorkItem // fetched, awaiting decode
	var s2v bool
	var s3 job // decoded, awaiting PGU dispatch
	var s3v bool
	var s2stall int64 // stage-2 QSpace stall countdown

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
		// Fast-forward: h is how many of the coming cycles are quiet. In a
		// quiet cycle no PGU is done (stage 4 has nothing to grant, and an
		// arbiter without requests does not rotate), no busy PGU finishes,
		// and stages 1–3 cannot act: s3 is stalled with every PGU busy, or
		// nothing is left to fetch or decode. Stepping through such cycles
		// would only count them and tick the PGU countdowns, so they are
		// applied at once. h stops at the livelock limit, so the guard
		// trips at the same cycle. QSpace stalls are stepped cycle by
		// cycle: the system model runs with no QSpace latency, so skipping
		// them would speed up nothing measured.
		h := limit - cycles
		switch {
		case s2stall > 0:
			h = 0
		case s3v:
			// Stalled unless a PGU is free; checked with the PGUs.
		case s2v || next < len(items):
			h = 0
		}
		for i := range pgus {
			switch {
			case pgus[i].done:
				h = 0
			case pgus[i].busy:
				h = min(h, pgus[i].remain-1)
			case s3v:
				h = 0 // a free PGU takes the s3 job
			}
		}
		if h > 0 {
			cycles += h
			if s3v {
				res.StallCycles += h
			}
			for i := range pgus {
				if pgus[i].busy {
					pgus[i].remain -= h
				}
			}
			continue
		}

		cycles++
		if cycles > limit {
			return res, fmt.Errorf("pipeline: livelock after %d cycles", cycles)
		}

		// Stage 4: arbitrate one completed PGU and write back its pulse.
		for i := range pgus {
			reqs[i] = pgus[i].done
		}
		if g := arb.Grant(reqs); g >= 0 {
			j := pgus[g].current
			if err := p.writePulse(j); err != nil {
				return res, err
			}
			if err := p.setStatus(j, qcc.StatusValid); err != nil {
				return res, err
			}
			pgus[g] = pguState{}
			res.Writebacks++
		}

		// Stage 3 bookkeeping: tick running PGUs.
		for i := range pgus {
			if pgus[i].busy {
				pgus[i].remain--
				if pgus[i].remain <= 0 {
					pgus[i].busy = false
					pgus[i].done = true
				}
			}
		}

		// Stage 3 dispatch: priority-encode a free PGU for the s3 job.
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
				stalled = true // all PGUs occupied: stall stages 1–2
				res.StallCycles++
			}
		}

		// Stage 2: decode + SLT, stalling on QSpace traffic.
		if s2stall > 0 {
			s2stall--
			res.QSpaceCycles++
		} else if !stalled && s2v && !s3v {
			j, generate, extra, err := p.decode(s2)
			if err != nil {
				return res, err
			}
			res.Processed++
			s2stall = extra
			if generate {
				s3, s3v = j, true
			} else {
				res.Skipped++
			}
			s2v = false
		}

		// Stage 1: fetch.
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

// decode performs the stage-2 work for one entry. It reports whether a
// pulse must be generated and how many extra cycles stage 2 stalls on
// QSpace traffic (datapath ❸).
func (p *Pipeline) decode(it WorkItem) (job, bool, int64, error) {
	e, err := p.cache.ReadProgram(it.Qubit, it.Index, qcc.HardwareAccess)
	if err != nil {
		return job{}, false, 0, err
	}
	data := e.Data
	if e.RegFlag {
		v, err := p.cache.ReadReg(int(e.Data), qcc.HardwareAccess)
		if err != nil {
			return job{}, false, 0, err
		}
		data = v & qcc.MaxEntryData
	}
	j := job{qubit: it.Qubit, index: it.Index, kind: circuit.Kind(e.Type), data: data}

	if e.Status == qcc.StatusValid && !e.RegFlag {
		// QAddress already valid and the parameter cannot have changed:
		// nothing to do.
		return j, false, 0, nil
	}

	if !p.cfg.UseSLT {
		// Ablation: always allocate a fresh slot and generate.
		slot := p.bank.Qubit(it.Qubit).AllocateAlways()
		j.qaddr = slot
		e.QAddr = slot & qcc.MaxEntryQAddr
		e.Status = qcc.StatusPending
		if err := p.cache.WriteProgram(it.Qubit, it.Index, e, qcc.HardwareAccess); err != nil {
			return j, false, 0, err
		}
		return j, true, 0, nil
	}

	res := p.bank.Qubit(it.Qubit).Lookup(e.Type, data)
	j.qaddr = res.QAddr
	e.QAddr = res.QAddr & qcc.MaxEntryQAddr
	// SLT hits resolve in the pipeline cycle. A QSpace HIT must wait for
	// the DRAM read (the stored QAddress is needed before linking), so it
	// pays the datapath-❸ latency. Allocation proceeds speculatively and
	// eviction write-backs are posted, so neither stalls stage 2.
	var extra int64
	if res.Outcome == slt.HitQSpace {
		extra += p.cfg.QSpaceLatency
	}
	if res.Outcome == slt.Allocated {
		e.Status = qcc.StatusPending
		if err := p.cache.WriteProgram(it.Qubit, it.Index, e, qcc.HardwareAccess); err != nil {
			return j, false, 0, err
		}
		return j, true, extra, nil
	}
	// Hit (SLT or QSpace): pulse exists; just link the address.
	e.Status = qcc.StatusValid
	if err := p.cache.WriteProgram(it.Qubit, it.Index, e, qcc.HardwareAccess); err != nil {
		return j, false, 0, err
	}
	return j, false, extra, nil
}

// writePulse synthesizes the job's pulse and stores its entries from the
// allocated slot on.
func (p *Pipeline) writePulse(j job) error {
	durNs := p.cfg.Timing.GateDuration(j.kind).Nanoseconds()
	p.pulseScratch = p.pgu.AppendGenerate(p.pulseScratch[:0], j.kind, qcc.DequantizeAngle(j.data), durNs)
	cfg := p.cache.Config()
	for i, e := range p.pulseScratch {
		idx := (int(j.qaddr) + i) % cfg.PulseEntries
		if err := p.cache.WritePulse(j.qubit, idx, e, qcc.HardwareAccess); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pipeline) setStatus(j job, status uint8) error {
	e, err := p.cache.ReadProgram(j.qubit, j.index, qcc.HardwareAccess)
	if err != nil {
		return err
	}
	e.Status = status
	return p.cache.WriteProgram(j.qubit, j.index, e, qcc.HardwareAccess)
}
