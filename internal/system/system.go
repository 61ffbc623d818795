// Package system assembles the full Qtenon machine: a RISC-V host core
// with the RoCC-attached quantum controller (unified memory hierarchy,
// SLT, four-stage pulse pipeline), the TileLink system bus with its RBQ,
// the soft memory barrier, the quantum chip behind the ADI, and the
// software stack (incremental compilation, batched transmission,
// fine-grained synchronization). It is the repository's one model of
// the Qtenon machine: every experiment and the benchmark run on it.
//
// Each cost evaluation executes the paper's instruction sequence —
// q_update* → q_gen → q_run ∥ q_acquire — with cycle-level component
// models supplying the latencies and the sched timeline computing what
// overlaps the quantum shadow. Accounting follows the critical path:
// exposed classical time is attributed to communication, pulse
// generation, or host computation exactly as Figures 13–16 report it.
package system

import (
	"fmt"

	"qtenon/internal/backend"
	"qtenon/internal/circuit"
	"qtenon/internal/compiler"
	"qtenon/internal/host"
	"qtenon/internal/mapper"
	"qtenon/internal/metrics"
	"qtenon/internal/pipeline"
	"qtenon/internal/qcc"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/sched"
	"qtenon/internal/sim"
	"qtenon/internal/slt"
	"qtenon/internal/tilelink"
	"qtenon/internal/trace"
	"qtenon/internal/vqa"
)

// Config assembles a Qtenon system.
type Config struct {
	Core  host.Core
	Costs host.Costs
	Bus   tilelink.Config
	ADI   quantum.ADI
	Shots int
	Seed  int64
	// Sync selects FENCE vs fine-grained synchronization (§6.2).
	Sync sched.SyncMode
	// Batching enables Algorithm 1's batched transmission (§6.3).
	Batching bool
	// Incremental enables dynamic incremental compilation; disabling it
	// recompiles and re-ships the whole program every evaluation
	// ("Qtenon hardware without software", Figure 13(b)).
	Incremental bool
	// UseSLT enables the skip lookup table (ablation hook).
	UseSLT bool
	// PGUs / PGULatency configure the pulse pipeline (paper: 8 × 1000).
	PGUs       int
	PGULatency int64
	// ControllerHz clocks the quantum controller (1 GHz, same as core).
	ControllerHz int64
	// Noise selects the chip error model; the zero value is ideal.
	Noise quantum.Noise
	// Coupling, when non-nil, routes the workload circuit onto the given
	// physical connectivity (SWAP insertion via internal/mapper) before
	// compilation — the transpilation step real hardware requires. Nil
	// assumes all-to-all connectivity, the paper's implicit setting.
	Coupling *mapper.Coupling
	// Method pins the chip's simulation method (route.Dense/Clifford/
	// Product); the zero value route.Auto keeps automatic routing.
	Method route.Method
}

// DefaultConfig returns the paper's full Qtenon configuration on the
// given host core.
func DefaultConfig(core host.Core) Config {
	return Config{
		Core:         core,
		Costs:        host.DefaultCosts(),
		Bus:          tilelink.DefaultConfig(),
		ADI:          quantum.DefaultADI(),
		Shots:        500,
		Seed:         1,
		Sync:         sched.FineGrained,
		Batching:     true,
		Incremental:  true,
		UseSLT:       true,
		PGUs:         8,
		PGULatency:   1000,
		ControllerHz: 1_000_000_000,
	}
}

// HardwareOnlyConfig returns "Qtenon w/o software" (Figure 13(b)): the
// tightly coupled hardware with naive software — FENCE synchronization,
// immediate per-shot transmission, and no fine-grained scheduling.
// Incremental compilation stays on: it is a property of the .regfile
// hardware and the program format.
func HardwareOnlyConfig(core host.Core) Config {
	c := DefaultConfig(core)
	c.Sync = sched.FENCE
	c.Batching = false
	return c
}

// System is a Qtenon machine bound to one workload.
type System struct {
	cfg      Config
	workload *vqa.Workload

	cacheCfg qcc.Config
	cache    *qcc.Cache
	bank     *slt.Bank
	pipe     *pipeline.Pipeline
	chip     *quantum.Chip
	bus      *tilelink.Bus
	rbq      *tilelink.RBQ
	barrier  *tilelink.Barrier
	prog     *compiler.Program

	controller sim.Clock
	cur        []float64
	loaded     bool

	// exec is the circuit actually executed (routed when Coupling is
	// set); layout maps logical → physical qubits for outcome remapping.
	exec   *circuit.Circuit
	layout []int

	breakdown    report.Breakdown
	comm         report.CommBreakdown
	evals        int
	pulsesGen    int64
	hostActivity sim.Time
	commActivity sim.Time

	// tracer, when set, records per-resource spans on the virtual
	// timeline (now advances by each evaluation's wall time).
	tracer *trace.Recorder
	now    sim.Time
	// engine drives each evaluation's timeline as discrete events at
	// absolute simulated times, so the simulation kernel's own metrics
	// (events executed, heap depth) are live during real runs.
	engine sim.Engine

	// measureCursor walks the .measure ring as shots land.
	measureCursor int
	// hostResultBase is the host-memory address results synchronize to.
	hostResultBase uint64

	// Per-evaluation scratch, recycled across Evaluate calls so the
	// steady-state hot path stops allocating: the q_update delta plan,
	// the bus-transfer write payload and retired-data storage, and the
	// bound-circuit shadow handed to the chip.
	deltaScratch []compiler.Delta
	beatScratch  []uint64
	dataScratch  []uint64
	boundScratch *circuit.Circuit

	// reg is this instance's private metrics registry; m holds the
	// handles the system itself updates (components below the system —
	// bus, RBQ, SLT bank, pipeline, engine — hold their own handles into
	// the same registry).
	reg *metrics.Registry
	m   sysInstruments
}

// sysInstruments are the system-level registry handles: the controller
// instruction mix (Table 1 ops the run issues), host-side timers, and
// run/quantum totals.
type sysInstruments struct {
	qSet, qUpdate, qGen, qRun, qAcquire *metrics.Counter
	hostPrep, hostPost                  *metrics.Timer
	evaluations                         *metrics.Counter
	shots                               *metrics.Counter
	shotTime                            *metrics.Timer
	// methods counts evaluations per routed simulation method, indexed
	// by route.Method ("quantum.method.dense" etc.; Auto never fires).
	methods [route.NumMethods]*metrics.Counter
}

func resolveSysInstruments(reg *metrics.Registry) sysInstruments {
	si := sysInstruments{
		qSet:        reg.Counter("controller.instr.q_set"),
		qUpdate:     reg.Counter("controller.instr.q_update"),
		qGen:        reg.Counter("controller.instr.q_gen"),
		qRun:        reg.Counter("controller.instr.q_run"),
		qAcquire:    reg.Counter("controller.instr.q_acquire"),
		hostPrep:    reg.Timer("host.prep_ps"),
		hostPost:    reg.Timer("host.post_ps"),
		evaluations: reg.Counter("system.evaluations"),
		shots:       reg.Counter("quantum.shots"),
		shotTime:    reg.Timer("quantum.shot_time_ps"),
	}
	for m := route.Method(0); m < route.NumMethods; m++ {
		si.methods[m] = reg.Counter("quantum.method." + m.String())
	}
	return si
}

// New builds a Qtenon system for the workload.
func New(cfg Config, w *vqa.Workload) (*System, error) {
	if cfg.Shots <= 0 {
		return nil, fmt.Errorf("system: non-positive shot count")
	}
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	if cfg.ControllerHz <= 0 {
		return nil, fmt.Errorf("system: non-positive controller clock")
	}
	exec := w.Circuit
	var layout []int
	if cfg.Coupling != nil {
		routed, err := mapper.Route(w.Circuit, cfg.Coupling)
		if err != nil {
			return nil, err
		}
		exec = routed.Circuit
		layout = routed.Layout
	}
	cacheCfg := qcc.DefaultConfig(exec.NQubits)
	cache, err := qcc.NewCache(cacheCfg)
	if err != nil {
		return nil, err
	}
	bank := slt.NewBank(exec.NQubits, cacheCfg.PulseEntries)
	pcfg := pipeline.Config{
		PGUs:       cfg.PGUs,
		PGULatency: cfg.PGULatency,
		UseSLT:     cfg.UseSLT,
	}
	pipe, err := pipeline.New(pcfg, cache, bank)
	if err != nil {
		return nil, err
	}
	chip, err := quantum.NewChip(exec.NQubits, cfg.Seed, cfg.Noise)
	if err != nil {
		return nil, err
	}
	chip.ForceMethod(cfg.Method)
	busCfg := cfg.Bus
	busCfg.Seed = cfg.Seed
	bus, err := tilelink.NewBus(busCfg)
	if err != nil {
		return nil, err
	}
	prog, err := compiler.Compile(exec, cacheCfg)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:            cfg,
		workload:       w,
		cacheCfg:       cacheCfg,
		cache:          cache,
		bank:           bank,
		pipe:           pipe,
		chip:           chip,
		bus:            bus,
		rbq:            tilelink.NewRBQ(busCfg.Tags, 8, busCfg.Tags*(8+1)),
		barrier:        tilelink.NewBarrier(),
		prog:           prog,
		exec:           exec,
		layout:         layout,
		controller:     sim.NewClock(cfg.ControllerHz),
		hostResultBase: 0x9000_0000,
		reg:            metrics.NewRegistry(),
	}
	// One private registry per instance: every layer reports into it, so
	// a snapshot covers the whole machine while concurrently-owned
	// instances (factory-minted sweep points) stay isolated.
	s.engine.Instrument(s.reg)
	s.bus.Instrument(s.reg)
	s.rbq.Instrument(s.reg)
	s.barrier.Instrument(s.reg)
	s.pipe.Instrument(s.reg)
	s.m = resolveSysInstruments(s.reg)
	return s, nil
}

// Metrics exposes the instance's metrics registry — live counters from
// every layer of the machine, snapshot-able at any point of a run.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// transferCycles runs a real bus transfer of `beats` beats and returns
// its cycle count.
func (s *System) transferCycles(beats int, write bool) (int64, error) {
	if beats <= 0 {
		return 0, nil
	}
	var data []uint64
	if write {
		if cap(s.beatScratch) < beats {
			s.beatScratch = make([]uint64, beats)
		}
		data = s.beatScratch[:beats]
		for i := range data {
			data[i] = 0
		}
	}
	res, err := tilelink.TransferReuse(s.bus, s.rbq, s.hostResultBase, beats, write, data, s.dataScratch[:0])
	s.dataScratch = res.Data
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// setup performs the one-time program upload (q_set) and returns its
// communication time.
func (s *System) setup(params []float64) (sim.Time, error) {
	if err := s.prog.Load(s.cache, params); err != nil {
		return 0, err
	}
	bytes := s.prog.TotalEntries() * 9 // 65-bit entries on the wire
	beats := (bytes + s.cfg.Bus.BeatBytes - 1) / s.cfg.Bus.BeatBytes
	cycles, err := s.transferCycles(beats, true)
	if err != nil {
		return 0, err
	}
	s.m.qSet.Inc() // one bulk q_set
	t := s.controller.Cycles(cycles)
	s.comm.QSet += t
	s.cur = append([]float64(nil), params...)
	s.loaded = true
	return t, nil
}

// EvaluateBatch evaluates every parameter vector in batch order —
// backend.Batcher. A machine's evaluations are inherently serial events
// on one accounting timeline (each one advances the incremental-compile
// diff state, the engine clock and the metrics registry), so the batch
// is exactly the serial sequence and the accounting is identical to
// per-call Evaluate; what the batch form buys is the optimizer-side
// amortization (one call per gradient, shared shifted-vector storage).
func (s *System) EvaluateBatch(sets [][]float64, out []float64) error {
	for k, p := range sets {
		v, err := s.Evaluate(p)
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

// Evaluate runs one cost evaluation with full Qtenon accounting. It is an
// opt.Evaluator. A parameter vector of the wrong length or with a
// non-finite value is an error before any state changes
// (backend.CheckParams).
func (s *System) Evaluate(params []float64) (float64, error) {
	if err := backend.CheckParams(params, s.workload.NumParams()); err != nil {
		return 0, fmt.Errorf("system: %w", err)
	}
	s.evals++
	s.m.evaluations.Inc()
	nq := s.exec.NQubits

	var hostPrep, commPrep sim.Time
	if !s.loaded {
		t, err := s.setup(params)
		if err != nil {
			return 0, err
		}
		commPrep += t
		hostPrep += s.cfg.Core.Time(s.cfg.Costs.IncrementalCompile(len(params)))
	} else if s.cfg.Incremental {
		deltas, err := s.prog.AppendDiff(s.deltaScratch[:0], s.cur, params)
		s.deltaScratch = deltas
		if err != nil {
			return 0, err
		}
		hostPrep += s.cfg.Core.Time(s.cfg.Costs.IncrementalCompile(len(deltas)))
		if err := compiler.ApplyDeltas(s.cache, deltas); err != nil {
			return 0, err
		}
		// q_update: one single-cycle RoCC op per changed register
		// (datapath ❶).
		t := sim.Time(len(deltas)) * s.controller.Cycles(host.RoCCIssueCycles)
		commPrep += t
		s.comm.QUpdate += t
		s.m.qUpdate.Add(int64(len(deltas)))
		s.cur = append(s.cur[:0], params...)
	} else {
		// Software disabled: full recompile + full q_set re-upload.
		hostPrep += s.cfg.Core.Time(s.cfg.Costs.JITCompile(s.prog.Gates))
		if err := s.prog.Load(s.cache, params); err != nil {
			return 0, err
		}
		bytes := s.prog.TotalEntries() * 9
		beats := (bytes + s.cfg.Bus.BeatBytes - 1) / s.cfg.Bus.BeatBytes
		cycles, err := s.transferCycles(beats, true)
		if err != nil {
			return 0, err
		}
		t := s.controller.Cycles(cycles)
		commPrep += t
		s.comm.QSet += t
		s.m.qSet.Inc()
		s.cur = append(s.cur[:0], params...)
	}

	// q_gen: the four-stage pipeline walks the program.
	pipeRes, err := s.pipe.Run(s.prog.Items)
	if err != nil {
		return 0, err
	}
	s.m.qGen.Inc()
	s.pulsesGen += int64(pipeRes.Generated)
	pulsePrep := s.controller.Cycles(pipeRes.Cycles)

	// q_run: execute shots; q_acquire: stream results. The bound shadow
	// circuit is scratch: Execute consumes it synchronously and never
	// retains it.
	bound := s.exec.BindInto(s.boundScratch, params)
	s.boundScratch = bound
	ex, err := s.chip.Execute(bound, s.cfg.Shots)
	if err != nil {
		return 0, err
	}
	s.m.qRun.Inc()
	s.m.qAcquire.Inc()
	s.m.shots.Add(int64(s.cfg.Shots))
	s.m.shotTime.Observe(int64(ex.ShotTime))
	s.m.methods[s.chip.Method()].Inc()

	k := 1
	if s.cfg.Batching {
		k = sched.BatchInterval(s.cfg.Bus.BeatBytes*8, nq)
	}
	batches := sched.PlanBatches(s.cfg.Shots, k)

	// Deposit outcomes in .measure and mark the barrier per batch; time a
	// representative batch transfer on the real bus.
	wordsPerShot := (nq + 63) / 64
	for i, o := range ex.Outcomes {
		idx := (s.measureCursor + i*wordsPerShot) % s.cacheCfg.MeasureEntries
		if err := s.cache.WriteMeasure(idx, o, qcc.HardwareAccess); err != nil {
			return 0, err
		}
	}
	s.measureCursor = (s.measureCursor + len(ex.Outcomes)*wordsPerShot) % s.cacheCfg.MeasureEntries
	batchBytes := k * wordsPerShot * 8
	beats := (batchBytes + s.cfg.Bus.BeatBytes - 1) / s.cfg.Bus.BeatBytes
	cycles, err := s.transferCycles(beats, true)
	if err != nil {
		return 0, err
	}
	transferPerBatch := s.controller.Cycles(cycles)
	s.barrier.MarkRange(s.hostResultBase, len(batches), uint64(batchBytes))

	tl := sched.Compute(sched.TimelineInput{
		Mode:             s.cfg.Sync,
		HostPrep:         hostPrep,
		CommPrep:         commPrep,
		PulsePrep:        pulsePrep,
		ShotTime:         ex.ShotTime + s.cfg.ADI.RoundTrip(),
		Batches:          batches,
		TransferPerBatch: transferPerBatch,
		HostPerShot:      s.cfg.Core.Time(s.cfg.Costs.PostProcess(1, nq)),
		HostPerBatch:     s.cfg.Core.Time(s.cfg.Costs.HostPerDelivery),
		HostTail:         s.cfg.Core.Time(s.cfg.Costs.ParamUpdate(s.workload.NumParams())),
	})

	s.breakdown.Quantum += tl.Quantum
	s.breakdown.PulseGen += tl.ExposedPulse
	s.breakdown.HostComp += tl.ExposedHost
	s.breakdown.Comm += tl.ExposedComm
	s.hostActivity += tl.HostActivity
	s.commActivity += tl.CommActivity

	s.m.hostPrep.Observe(int64(hostPrep))
	tail := tl.Total - (hostPrep + commPrep + pulsePrep + tl.Quantum)
	if tail > 0 {
		s.m.hostPost.Observe(int64(tail))
	}

	// Lay the evaluation out on the event engine at absolute simulated
	// times: each phase of the q_update* → q_gen → q_run ∥ q_acquire
	// sequence becomes one event that records its span (the recorder is
	// nil-safe, so untraced runs schedule the same timeline). FIFO order
	// within a timestamp keeps span insertion order stable even for
	// zero-length phases.
	t0 := s.now
	qStart := t0 + hostPrep + commPrep + pulsePrep
	qEnd := qStart + tl.Quantum
	s.engine.At(t0, func() { s.tracer.Add("host", "prep", t0, t0+hostPrep) })
	s.engine.At(t0+hostPrep, func() {
		s.tracer.Add("rocc/bus", "q_update/q_set", t0+hostPrep, t0+hostPrep+commPrep)
	})
	s.engine.At(t0+hostPrep+commPrep, func() { s.tracer.Add("pipeline", "q_gen", t0+hostPrep+commPrep, qStart) })
	s.engine.At(qStart, func() { s.tracer.Add("quantum", "q_run", qStart, qEnd) })
	end := t0 + tl.Total
	if tail > 0 {
		s.engine.At(qEnd, func() { s.tracer.Add("host", "post+update", qEnd, qEnd+tail) })
	}
	if end < qEnd {
		end = qEnd
	}
	s.engine.At(end, func() {}) // end-of-evaluation marker
	s.now = s.engine.Run()
	// The q_acquire share of exposed communication is whatever was not
	// prep traffic (q_set/q_update).
	if tail := tl.ExposedComm - commPrep; tail > 0 {
		s.comm.QAcquire += tail
	}

	outcomes := ex.Outcomes
	if s.layout != nil {
		outcomes = mapper.RemapOutcomes(outcomes, s.layout)
	}
	return s.workload.Cost(outcomes), nil
}

// SetTrace attaches a span recorder; pass nil to disable. Spans are laid
// out on a virtual timeline that advances by each evaluation's duration.
func (s *System) SetTrace(r *trace.Recorder) { s.tracer = r }

// Result reports everything accumulated so far as one report.RunResult —
// the Backend accounting surface. History is the optimizer's to fill
// (backend.RunOn overwrites it); Evaluations here counts Evaluate calls,
// which agrees with the optimizer on a fresh instance.
func (s *System) Result() report.RunResult {
	var method string
	if s.evals > 0 {
		method = s.chip.Method().String()
	}
	return report.RunResult{
		Breakdown:        s.breakdown,
		Comm:             s.comm,
		Evaluations:      s.evals,
		InstructionCount: int(s.m.qSet.Value() + s.m.qUpdate.Value() + s.m.qGen.Value() + s.m.qRun.Value() + s.m.qAcquire.Value()),
		HostActivity:     s.hostActivity,
		CommActivity:     s.commActivity,
		PulsesGenerated:  s.pulsesGen,
		SLTHitRate:       s.bank.TotalStats().HitRate(),
		Method:           method,
	}
}

// Factory mints independent Qtenon systems from one configuration — the
// backend.Factory for the tightly coupled machine. Each instance owns
// its full hardware stack and metrics registry, so factory-spawned
// systems can be evaluated concurrently.
type Factory struct {
	Cfg Config
}

// New implements backend.Factory.
func (f Factory) New(w *vqa.Workload) (backend.Backend, error) { return New(f.Cfg, w) }

// Interface conformance.
var (
	_ backend.Backend      = (*System)(nil)
	_ backend.Instrumented = (*System)(nil)
	_ backend.Factory      = Factory{}
)
