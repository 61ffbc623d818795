// Package pipeline implements the four-stage pulse-computation pipeline
// of §5.3 / Figure 6, cycle-exactly:
//
//	Stage 1  read the circuit definition from the Program Index Buffer
//	Stage 2  decode; fetch Regfile if R=1; query the SLT when Status=0
//	Stage 3  dispatch to a free PGU (stall S1/S2 when all PGUs are busy;
//	         S4 is decoupled by ready/valid)
//	Stage 4  write back the program entries of finished PGUs
//
// The model is cycle-exact over real program data: entries are read from
// and written back to the quantum controller cache, and SLT lookups hit
// the slt.Bank. As in the paper (§7.1), a PGU is a black box that holds a
// job for PGULatency cycles; it synthesizes no waveform, because every
// result counts pulses and cycles, never samples. Stage 3 dispatches at
// most one job per cycle and every job takes PGULatency, so no two PGUs
// finish in one cycle and stage 4 never arbitrates. Each item's decode,
// dispatch and write-back cycles therefore follow from the item before
// it, and Run steps items, not cycles: host cost follows items, not
// simulated cycles.
package pipeline

import (
	"fmt"

	"qtenon/internal/circuit"
	"qtenon/internal/metrics"
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
	// Timing is read by nothing: a PGU takes PGULatency cycles whatever
	// the gate. The field stays only because perfbench's replay sets it.
	Timing circuit.Timing
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{PGUs: 8, PGULatency: 1000, UseSLT: true, QSpaceLatency: 100}
}

// Result reports one pipeline run.
type Result struct {
	Cycles       int64 // total cycles from first fetch to last writeback
	Processed    int   // entries examined
	Generated    int   // pulses generated (SLT misses)
	Skipped      int   // entries resolved without generation
	StallCycles  int64 // cycles stages 1–2 were stalled on busy PGUs
	QSpaceCycles int64 // stage-2 stalls on QSpace accesses (datapath ❸)
	Writebacks   int   // PGU completions written back (program entry marked valid)
}

// Pipeline binds the hardware resources the four stages touch.
type Pipeline struct {
	cfg   Config
	cache *qcc.Cache
	bank  *slt.Bank

	// jobs is a ring of the pulses in flight, inflight of them from
	// jobs[head], oldest first; there is one slot per PGU. Stage 4 writes
	// them back in dispatch order, and with every PGU taken the oldest
	// frees the next. It is kept across runs, so Run does not allocate.
	jobs           []job
	head, inflight int

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
	return &Pipeline{cfg: cfg, cache: cache, bank: bank, jobs: make([]job, cfg.PGUs)}, nil
}

// job is a pulse in a PGU: the entry it was decoded from and the cycle
// in which stage 4 writes that entry back, freeing the PGU.
type job struct {
	item WorkItem
	wb   int64
}

// Run processes the work items in order and returns cycle-accurate
// results. It mutates the cache: program entries get their QAddr/Status
// fields updated.
func (p *Pipeline) Run(items []WorkItem) (Result, error) {
	return p.run(items, p.cycleLimit(len(items)))
}

// cycleLimit bounds a run over n items; a run past it is reported as a
// livelock. Each item costs at most two PGU latencies and one QSpace
// stall.
func (p *Pipeline) cycleLimit(n int) int64 {
	return int64(n)*(p.cfg.PGULatency*2+p.cfg.QSpaceLatency) + 10000
}

// run is Run with an explicit livelock limit. It steps items, not cycles
// (DESIGN.md §10): item 0 is fetched in cycle 1, and every later item
// decodes in a cycle that follows from the item before it. Within a
// cycle, stage 4's write-backs come before stage 3's dispatch and stage
// 2's decode, so an entry that repeats sees its own write-back. A run
// that would act past limit fails with the partial Result of cycles
// 1..limit and adds no counter.
func (p *Pipeline) run(items []WorkItem, limit int64) (Result, error) {
	var res Result
	if len(items) == 0 {
		return res, nil
	}
	p.head, p.inflight = 0, 0
	d := int64(2)    // cycle in which the next item decodes
	var lastWB int64 // write-back cycle of the last pulse dispatched
	for _, it := range items {
		if err := p.reach(&res, d, limit); err != nil {
			return res, err
		}
		generate, extra, err := p.decode(it)
		if err != nil {
			return res, err
		}
		res.Processed++
		if !generate {
			// Stage 1 fetches the next item in this cycle, or in the last
			// cycle of a QSpace stall.
			res.Skipped++
			res.QSpaceCycles += min(extra, limit-d)
			d += 1 + extra
			continue
		}
		// A miss carries no QSpace stall, so stage 1 fetches the next item
		// in this cycle. Stage 3 dispatches the miss in the next one or,
		// with every PGU taken, once stage 4 frees the oldest; stages 1–2
		// stall until then, and the next item decodes in the dispatch cycle.
		s := d + 1
		if p.inflight == len(p.jobs) {
			s = max(s, p.jobs[p.head].wb)
		}
		res.StallCycles += min(s-1, limit) - d
		if err := p.reach(&res, s, limit); err != nil {
			return res, err
		}
		lastWB = s + p.cfg.PGULatency + 1
		p.jobs[(p.head+p.inflight)%len(p.jobs)] = job{it, lastWB}
		p.inflight++
		// Busy PGUs: all in flight but one that finished this cycle and
		// waits for its write-back (at most one can, the oldest).
		busy := int64(p.inflight)
		if p.jobs[p.head].wb == s+1 {
			busy--
		}
		p.gPGUBusy.Set(busy)
		d = s
	}
	// The run ends with the last write-back or with the last decode and
	// its QSpace stall, whichever is later.
	end := max(d-1, lastWB)
	if err := p.reach(&res, end, limit); err != nil {
		return res, err
	}
	res.Cycles = end
	res.Generated = res.Writebacks
	p.cProcessed.Add(int64(res.Processed))
	p.cGenerated.Add(int64(res.Generated))
	p.cSkipped.Add(int64(res.Skipped))
	p.cStall.Add(res.StallCycles)
	p.cQSpaceStall.Add(res.QSpaceCycles)
	p.cCycles.Add(res.Cycles)
	return res, nil
}

// reach advances the run to cycle c. Stage 4 marks valid, in dispatch
// order, the program entry of every pulse written back by cycle c, or by
// limit when c is past it; then a c past limit is a livelock.
func (p *Pipeline) reach(res *Result, c, limit int64) error {
	for p.inflight > 0 && p.jobs[p.head].wb <= min(c, limit) {
		if err := p.setStatus(p.jobs[p.head].item, qcc.StatusValid); err != nil {
			return err
		}
		res.Writebacks++
		p.head = (p.head + 1) % len(p.jobs)
		p.inflight--
	}
	if c > limit {
		return fmt.Errorf("pipeline: livelock after %d cycles", limit+1)
	}
	return nil
}

// decode performs the stage-2 work for one entry. It reports whether a
// pulse must be generated and how many extra cycles stage 2 stalls on
// QSpace traffic (datapath ❸).
func (p *Pipeline) decode(it WorkItem) (bool, int64, error) {
	e, err := p.cache.ReadProgram(it.Qubit, it.Index, qcc.HardwareAccess)
	if err != nil {
		return false, 0, err
	}
	data := e.Data
	if e.RegFlag {
		v, err := p.cache.ReadReg(int(e.Data), qcc.HardwareAccess)
		if err != nil {
			return false, 0, err
		}
		data = v & qcc.MaxEntryData
	}

	if e.Status == qcc.StatusValid && !e.RegFlag {
		// QAddress already valid and the parameter cannot have changed:
		// nothing to do.
		return false, 0, nil
	}

	if !p.cfg.UseSLT {
		// Ablation: always allocate a fresh slot and generate.
		e.QAddr = p.bank.Qubit(it.Qubit).AllocateAlways() & qcc.MaxEntryQAddr
		e.Status = qcc.StatusPending
		return true, 0, p.cache.WriteProgram(it.Qubit, it.Index, e, qcc.HardwareAccess)
	}

	res := p.bank.Qubit(it.Qubit).Lookup(e.Type, data)
	e.QAddr = res.QAddr & qcc.MaxEntryQAddr
	// SLT hits resolve in the pipeline cycle. A QSpace HIT must wait for
	// the DRAM read (the stored QAddress is needed before linking), so it
	// pays the datapath-❸ latency. Allocation proceeds speculatively and
	// eviction write-backs are posted, so neither stalls stage 2.
	var extra int64
	if res.Outcome == slt.HitQSpace {
		extra += p.cfg.QSpaceLatency
	}
	generate := res.Outcome == slt.Allocated
	if generate {
		e.Status = qcc.StatusPending
	} else {
		// Hit (SLT or QSpace): pulse exists; just link the address.
		e.Status = qcc.StatusValid
	}
	return generate, extra, p.cache.WriteProgram(it.Qubit, it.Index, e, qcc.HardwareAccess)
}

func (p *Pipeline) setStatus(it WorkItem, status uint8) error {
	e, err := p.cache.ReadProgram(it.Qubit, it.Index, qcc.HardwareAccess)
	if err != nil {
		return err
	}
	e.Status = status
	return p.cache.WriteProgram(it.Qubit, it.Index, e, qcc.HardwareAccess)
}
